package gen

import (
	"bytes"
	"crypto/sha256"
	"io"
	"runtime"
	"testing"

	"repro/internal/netlist"
)

// largeTestProfile is a paper-shaped profile downscaled so unit tests
// cover several tiles (including the import window) without paper-scale
// runtime.
func largeTestProfile() Profile {
	p, ok := ProfileByName("netcard-paper")
	if !ok {
		panic("netcard-paper profile missing")
	}
	p.TargetGates = 26_000 // ~7 tiles
	p.FFs = 600
	p.PIs = 96
	p.POs = 96
	p.ScanChains = 30
	return p
}

// TestEmitLargeRoundTrip: reading back the streamed text form must yield
// exactly the netlist GenerateLarge builds in memory — same gates, same
// order, same wiring — proven by byte-equal serializations.
func TestEmitLargeRoundTrip(t *testing.T) {
	p := largeTestProfile()
	var stream bytes.Buffer
	if err := EmitLarge(&stream, p, 42, 4); err != nil {
		t.Fatal(err)
	}
	parsed, err := netlist.Read(&stream)
	if err != nil {
		t.Fatal(err)
	}
	built := GenerateLarge(p, 42, 4)

	var a, b bytes.Buffer
	if err := netlist.Write(&a, parsed); err != nil {
		t.Fatal(err)
	}
	if err := netlist.Write(&b, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("EmitLarge->Read and GenerateLarge serialize differently")
	}
}

// TestEmitLargeWorkerInvariance: the byte stream is a pure function of
// (profile, seed), never of the worker count.
func TestEmitLargeWorkerInvariance(t *testing.T) {
	p := largeTestProfile()
	var want [32]byte
	for i, w := range []int{1, 2, 5, 8} {
		h := sha256.New()
		if err := EmitLarge(h, p, 9, w); err != nil {
			t.Fatal(err)
		}
		var got [32]byte
		h.Sum(got[:0])
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: stream differs from workers=1", w)
		}
	}
}

// TestGenerateLargeStructure: the tiled design is a legal sequential
// circuit of roughly the target size, with every flop fed and cross-tile
// edges present.
func TestGenerateLargeStructure(t *testing.T) {
	p := largeTestProfile()
	n := GenerateLarge(p, 3, 0)
	logic := n.NumLogicGates()
	if ratio := float64(logic) / float64(p.TargetGates); ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("logic gates %d vs target %d (ratio %.2f)", logic, p.TargetGates, ratio)
	}
	if len(n.FFs) != p.FFs {
		t.Fatalf("FFs %d != %d", len(n.FFs), p.FFs)
	}
	for _, ff := range n.FFs {
		if len(n.Gates[ff].Fanin) != 1 {
			t.Fatalf("flop %s has %d data sources", n.Gates[ff].Name, len(n.Gates[ff].Fanin))
		}
	}
	stats, err := n.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("large design: %+v", stats)
}

// heapWatcher samples HeapAlloc as the stream flows through it.
type heapWatcher struct {
	n    int
	peak uint64
}

func (h *heapWatcher) Write(p []byte) (int, error) {
	h.n++
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
	return len(p), nil
}

// TestEmitLargeBoundedMemory streams a 100K-gate design and asserts the
// live heap stays far below the size of the materialized netlist: the
// emitter must hold tile batches, not the design.
func TestEmitLargeBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	p, ok := ProfileByName("aes-paper")
	if !ok {
		t.Fatal("aes-paper profile missing")
	}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	w := &heapWatcher{}
	if err := EmitLarge(io.Discard, p, 5, 4); err != nil {
		t.Fatal(err)
	}
	if err := EmitLarge(w, p, 5, 4); err != nil {
		t.Fatal(err)
	}
	const ceiling = 128 << 20
	if w.peak > base.HeapAlloc+ceiling {
		t.Fatalf("peak heap %d MB over baseline %d MB exceeds %d MB ceiling",
			(w.peak-base.HeapAlloc)>>20, base.HeapAlloc>>20, ceiling>>20)
	}
	t.Logf("peak heap during 100K-gate emit: %d MB (baseline %d MB)", w.peak>>20, base.HeapAlloc>>20)
}

// TestGenerateLargeScale builds the full 300K-gate paper design once (not
// in -short), checking the generator holds its gate-count contract at the
// paper's scale.
func TestGenerateLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	p, ok := ProfileByName("netcard-paper")
	if !ok {
		t.Fatal("netcard-paper profile missing")
	}
	n := GenerateLarge(p, 1, 0)
	if logic := n.NumLogicGates(); logic < 250_000 {
		t.Fatalf("expected ~300K logic gates, got %d", logic)
	}
	t.Logf("netcard-paper: %d gates total", len(n.Gates))
}
