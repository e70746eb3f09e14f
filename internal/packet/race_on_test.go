//go:build race

package packet

const raceEnabled = true
