package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/sim"
)

// patternDigest is sha256 over little-endian uint64s: N, then every PI
// word, then every FF word. The first 8 bytes are returned as hex.
func patternDigest(ps *sim.PatternSet) string {
	h := sha256.New()
	var buf [8]byte
	put := func(w uint64) {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	put(uint64(ps.N))
	for _, sig := range [][][]uint64{ps.PI, ps.FF} {
		for _, words := range sig {
			for _, w := range words {
				put(w)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestPatternDigests pins the pattern sets of nine configurations, three
// of them with PODEM patterns, so any change to the random phase, the
// top-up order or PODEM's decisions shows as a changed digest.
func TestPatternDigests(t *testing.T) {
	starve := Options{Seed: 7, MaxRandomBatches: 1, MinBatchYield: 1e6, MaxTopUpFaults: 2000, MaxBacktracks: 100}
	cases := []struct {
		design        string
		scale         float64
		seed          int64
		opt           Options
		random, podem int
		digest        string
	}{
		{"aes", 0.05, 1, starve, 64, 2, "b59eddac75d7ecf4"},
		{"aes", 0.15, 1, Options{Seed: 8}, 256, 0, "a6ab9b736bb5e7bb"},
		{"aes", 0.15, 2, starve, 64, 0, "302f44fd506be5ef"},
		{"tate", 0.1, 3, starve, 64, 32, "ab8b9e4c59993735"},
		{"netcard", 0.08, 4, starve, 64, 0, "6aa5e0c2f3311a5c"},
		{"leon3mp", 0.05, 5, Options{Seed: 9, MaxRandomBatches: 2, MinBatchYield: 1e6}, 128, 1, "c45bcd75746f9804"},
		{"aes", 0.7, 1, Options{Seed: 8}, 448, 0, "971928379ab2e17f"}, // the bench design
		{"aes", 0.3, 6, Options{Seed: 3, MaxRandomBatches: 2, MinBatchYield: 1e6, MaxTopUpFaults: 600}, 128, 0, "0309006d4d062508"},
		{"tate", 0.3, 1, Options{Seed: 8}, 448, 0, "8dfd0a8e7bef3474"},
	}
	for _, c := range cases {
		res, err := Generate(m3dDesign(t, c.design, c.scale, c.seed), c.opt)
		if err != nil {
			t.Fatal(err)
		}
		got := patternDigest(res.Patterns)
		if res.RandomPatterns != c.random || res.DeterministicPatterns != c.podem || got != c.digest {
			t.Errorf("%s ×%g seed %d: %d + %d patterns, digest %s; want %d + %d, %s",
				c.design, c.scale, c.seed, res.RandomPatterns, res.DeterministicPatterns, got,
				c.random, c.podem, c.digest)
		}
	}
}
