package verifier

// PendingHashes exposes the running count of trusted digests whose
// packets have not authenticated (the hash buffer), for recount checks.
func (v *Chained) PendingHashes() int { return v.pendingHashes }
