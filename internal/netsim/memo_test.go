package netsim_test

import (
	"reflect"
	"testing"
	"time"

	"mcauth/internal/conformance"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/schemetest"
)

// TestRunMemoHotMatchesCold pins that receivers share proven signatures
// and nothing else: for every conformance scheme, a second Run on the
// same scheme — whose signature checks all hit the key's memo — returns
// exactly the first run's Result, at any worker count.
func TestRunMemoHotMatchesCold(t *testing.T) {
	cases, err := conformance.Suite(32)
	if err != nil {
		t.Fatal(err)
	}
	model, err := loss.NewBernoulli(0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Jitter wider than the send interval reorders deliveries, so
	// receivers buffer and TESLA disclosures release several intervals.
	dm, err := delay.NewGaussian(5*time.Millisecond, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			interval := c.SendInterval
			if interval == 0 {
				interval = 2 * time.Millisecond
			}
			cfg := netsim.Config{
				Receivers:       150,
				Loss:            model,
				Delay:           dm,
				SendInterval:    interval,
				Start:           c.Start,
				Seed:            41,
				ReliableIndices: c.ReliableIndices,
				Workers:         1,
			}
			payloads := schemetest.Payloads(c.Scheme.BlockSize())
			cold, err := netsim.Run(c.Scheme, cfg, 1, payloads)
			if err != nil {
				t.Fatal(err)
			}
			if cold.TotalAuthenticated() == 0 {
				t.Fatal("nothing authenticated: the comparison would be vacuous")
			}
			for _, workers := range []int{1, 8} {
				cfg.Workers = workers
				hot, err := netsim.Run(c.Scheme, cfg, 1, payloads)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cold, hot) {
					t.Fatalf("memo-hot run at %d workers differs from the cold run", workers)
				}
			}
		})
	}
}

// TestRunMemoHotSkipsSignatureChecks shows where the sharing comes from:
// once one run has proven a block's signatures, a rerun performs no
// Ed25519 verification at all.
func TestRunMemoHotSkipsSignatureChecks(t *testing.T) {
	cases, err := conformance.Suite(16)
	if err != nil {
		t.Fatal(err)
	}
	model, err := loss.NewBernoulli(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Name != "signeach" {
			continue
		}
		cfg := netsim.Config{
			Receivers:       20,
			Loss:            model,
			Delay:           delay.Constant{D: time.Millisecond},
			SendInterval:    time.Millisecond,
			Start:           c.Start,
			Seed:            3,
			ReliableIndices: c.ReliableIndices,
			// One worker: concurrent receivers may each miss the memo on
			// the same signature before either stores it.
			Workers: 1,
		}
		payloads := schemetest.Payloads(c.Scheme.BlockSize())
		verifies := func() int64 {
			reg := obs.NewRegistry()
			crypto.Instrument(reg)
			defer crypto.Uninstrument()
			if _, err := netsim.Run(c.Scheme, cfg, 1, payloads); err != nil {
				t.Fatal(err)
			}
			return reg.Snapshot().Counters["crypto.verify_ops"]
		}
		cold, hot := verifies(), verifies()
		if cold == 0 || cold > int64(c.Scheme.BlockSize()) {
			t.Errorf("cold run: %d Ed25519 checks, want 1..%d (one per distinct signature)", cold, c.Scheme.BlockSize())
		}
		if hot != 0 {
			t.Errorf("memo-hot run: %d Ed25519 checks, want 0", hot)
		}
		return
	}
	t.Fatal("conformance suite has no signeach case")
}

// TestRunMemoHotSkipsChainWalks shows the TESLA half of the sharing: once
// one run has proven a block's chain keys and MAC keys, a rerun's only
// HMAC work is each receiver's own MAC check of the data packets it
// authenticates — no PRF chain steps and no MAC-key derivations.
func TestRunMemoHotSkipsChainWalks(t *testing.T) {
	cases, err := conformance.Suite(32)
	if err != nil {
		t.Fatal(err)
	}
	model, err := loss.NewBernoulli(0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Name != "tesla" {
			continue
		}
		cfg := netsim.Config{
			Receivers:       100,
			Loss:            model,
			Delay:           delay.Constant{D: time.Millisecond},
			SendInterval:    c.SendInterval,
			Start:           c.Start,
			Seed:            9,
			ReliableIndices: c.ReliableIndices,
		}
		payloads := schemetest.Payloads(c.Scheme.BlockSize())
		macOps := func(fn func()) int64 {
			reg := obs.NewRegistry()
			crypto.Instrument(reg)
			defer crypto.Uninstrument()
			fn()
			return reg.Snapshot().Counters["crypto.mac_ops"]
		}
		// Run signs the block first; that sender-side work is the same in
		// every run and is not the receivers'.
		signOps := macOps(func() {
			if _, err := c.Scheme.Authenticate(1, payloads); err != nil {
				t.Fatal(err)
			}
		})
		run := func() (*netsim.Result, int64) {
			var res *netsim.Result
			ops := macOps(func() {
				var err error
				if res, err = netsim.Run(c.Scheme, cfg, 1, payloads); err != nil {
					t.Fatal(err)
				}
			})
			return res, ops - signOps
		}
		cold, coldOps := run()
		hot, hotOps := run()
		if !reflect.DeepEqual(cold, hot) {
			t.Fatal("memo-hot run differs from the cold run")
		}
		// Wire index 1 is the bootstrap; every verified index after it is
		// a data packet that passed one MAC check.
		var macChecks int64
		for _, rep := range hot.PerReceiver {
			for i := 2; i < len(rep.VerifiedByIndex); i++ {
				if rep.VerifiedByIndex[i] {
					macChecks++
				}
			}
		}
		if macChecks == 0 || hotOps != macChecks {
			t.Errorf("memo-hot run: %d HMAC ops, want exactly the %d data-packet MAC checks", hotOps, macChecks)
		}
		if coldOps <= hotOps {
			t.Errorf("cold run: %d HMAC ops, want more than the hot run's %d (chain walks and derivations)", coldOps, hotOps)
		}
		return
	}
	t.Fatal("conformance suite has no tesla case")
}
