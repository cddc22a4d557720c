package core

import (
	"math/rand"
	"net/netip"
	"testing"
)

// boundLatent returns a classifier bound to tb, as NewPipeline leaves
// one.
func boundLatent(t testing.TB, window int, tb *FlowTable) *LatentHeatClassifier {
	t.Helper()
	c, err := NewLatentHeatClassifier(window)
	if err != nil {
		t.Fatal(err)
	}
	c.table = tb
	return c
}

// TestShareLatentWindowsGrouping pins who shares: classifiers with equal
// window, two or more, each on a pinned table and not yet stepped; a
// lone classifier, an unpinned or missing table and a classifier already
// running all keep their own window.
func TestShareLatentWindowsGrouping(t *testing.T) {
	pinned := func() *FlowTable {
		tb := NewFlowTable()
		tb.Pin()
		return tb
	}
	a := boundLatent(t, 4, pinned())
	b := boundLatent(t, 4, pinned())
	c := boundLatent(t, 6, pinned())
	d := boundLatent(t, 6, pinned())
	lone := boundLatent(t, 5, pinned())        // shareable, no partner
	loose := boundLatent(t, 4, NewFlowTable()) // table not pinned
	bare, _ := NewLatentHeatClassifier(4)      // no table yet
	running := boundLatent(t, 4, pinned())
	first := NewFlowSnapshot(0)
	running.table.FillIDs(first)
	running.Classify(first, 1)
	e := boundLatent(t, 4, pinned()) // window 4 again, listed last

	wins := ShareLatentWindows([]*LatentHeatClassifier{a, c, lone, b, loose, bare, running, d, e})
	if len(wins) != 2 {
		t.Fatalf("%d shared windows, want 2", len(wins))
	}
	if !a.attached || a.win != wins[0] || b.win != wins[0] || e.win != wins[0] {
		t.Error("window=4 classifiers do not share the first window")
	}
	if !c.attached || c.win != wins[1] || d.win != wins[1] {
		t.Error("window=6 classifiers do not share the second window")
	}
	for name, cl := range map[string]*LatentHeatClassifier{"lone": lone, "unpinned": loose, "unbound": bare} {
		if cl.attached || cl.win != nil {
			t.Errorf("%s classifier was attached to a shared window", name)
		}
	}
	if running.attached {
		t.Error("a classifier that had already classified was attached")
	}
	if again := ShareLatentWindows([]*LatentHeatClassifier{a, b, c, d, e}); len(again) != 0 {
		t.Errorf("attached classifiers were shared a second time: %d new windows", len(again))
	}
}

// TestSharedWindowRequiresObserve: an attached classifier whose window
// was not advanced for the interval would classify on stale sums; that
// is a bug in the window's holder and panics instead.
func TestSharedWindowRequiresObserve(t *testing.T) {
	tb := NewFlowTable()
	tb.Pin()
	a, b := boundLatent(t, 3, tb), boundLatent(t, 3, tb)
	if len(ShareLatentWindows([]*LatentHeatClassifier{a, b})) != 1 {
		t.Fatal("no shared window")
	}
	snap := NewFlowSnapshot(1)
	snap.Append(pfx(1), 10)
	tb.FillIDs(snap)
	defer func() {
		if recover() == nil {
			t.Error("Classify on an unobserved shared window did not panic")
		}
	}()
	a.Classify(snap, 1)
}

// sharedShape decodes a fuzz input into one run's parameters.
type sharedShape struct {
	window, n int
	integer   bool
	dropout   int // attached classifier n-1 stops after this interval
	phases    []byte
}

func decodeSharedShape(shape []byte) sharedShape {
	at := func(i int) int {
		if i < len(shape) {
			return int(shape[i])
		}
		return 0
	}
	sh := sharedShape{window: 1 + at(0)%8, n: 2 + at(1)%3, integer: at(2)%2 == 0, dropout: 20 + at(3)}
	if len(shape) > 4 {
		sh.phases = shape[4:]
	}
	return sh
}

// FuzzLatentShared is the sum-once contract: one interval sequence
// through N classifiers attached to one window — observed once per
// interval — and through N that own their windows (each on a private,
// unpinned table, driven as a pipeline drives it, so evictions really
// release and recycle IDs) must give equal verdicts, tracked-flow
// counts and latent heats every interval, whatever each classifier's
// thresholds. The sequence has cohorts of flows idling in phases taken
// from the input — so flows return inside the window, outside it but
// before their 4W eviction, and after it — and per-classifier
// thresholds that are zero, shared or random. One attached classifier
// stops midway, as a failed cell does.
func FuzzLatentShared(f *testing.F) {
	f.Add(int64(1), []byte{11, 0, 0, 40})
	f.Add(int64(2), []byte{3, 2, 1, 5, 0xff, 0, 0, 0, 0xff, 0x0f, 0xf0})
	f.Add(int64(3), []byte{0, 1, 0, 0, 1, 2, 4, 8, 16, 32, 64, 128})
	f.Add(int64(4), []byte{5, 2, 1, 200, 0xaa, 0x55, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0x55})
	f.Add(int64(5), []byte{2, 0, 0, 9, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		sh := decodeSharedShape(shape)
		rng := rand.New(rand.NewSource(seed))
		pool := make([]netip.Prefix, 48)
		for i := range pool {
			pool[i] = pfx(i)
		}
		shared := NewFlowTable()
		shared.Pin()
		attached := make([]*LatentHeatClassifier, sh.n)
		owning := make([]tabled, sh.n)
		for j := range attached {
			attached[j] = boundLatent(t, sh.window, shared)
			owning[j] = newTabled(t, sh.window)
		}
		wins := ShareLatentWindows(attached)
		if len(wins) != 1 {
			t.Fatalf("window=%d: %d shared windows, want 1", sh.window, len(wins))
		}
		sharedSnap, ownSnap := NewFlowSnapshot(len(pool)), NewFlowSnapshot(len(pool))
		for step := 0; step < 160; step++ {
			var phase byte
			if len(sh.phases) > 0 {
				phase = sh.phases[step%len(sh.phases)]
			}
			sharedSnap.Reset()
			ownSnap.Reset()
			for i, p := range pool {
				// Eight cohorts idle by the phase byte's bits; the rest of
				// the idling is noise.
				if phase>>(i%8)&1 == 1 || rng.Intn(5) == 0 {
					continue
				}
				bw := rng.Float64() * 5e4
				if sh.integer {
					bw = float64(rng.Intn(5000) + 1)
				}
				sharedSnap.Append(p, bw)
				ownSnap.Append(p, bw)
			}
			shared.FillIDs(sharedSnap)
			wins[0].Observe(sharedSnap)
			common := float64(rng.Intn(3000))
			for j := range attached {
				if j == sh.n-1 && step > sh.dropout {
					continue // dropped out; the window carries on for the rest
				}
				thr := common
				switch rng.Intn(4) {
				case 0:
					thr = 0
				case 1:
					thr = float64(rng.Intn(3000))
					if !sh.integer {
						thr = rng.Float64() * 3e3
					}
				}
				got := attached[j].Classify(sharedSnap, thr)
				want := owning[j].Classify(ownSnap, thr)
				if !verdictsEqual(got, want) {
					t.Fatalf("interval %d classifier %d (window=%d): attached %v %v, owning %v %v",
						step, j, sh.window, got.Indices, got.Offline, want.Indices, want.Offline)
				}
				if g, w := attached[j].TrackedFlows(), owning[j].TrackedFlows(); g != w {
					t.Fatalf("interval %d classifier %d: attached tracks %d flows, owning %d", step, j, g, w)
				}
				for _, p := range pool {
					glh, gok := attached[j].LatentHeat(p)
					wlh, wok := owning[j].LatentHeat(p)
					if gok != wok || glh != wlh {
						t.Fatalf("interval %d classifier %d: LatentHeat(%v) attached %v,%v owning %v,%v", step, j, p, glh, gok, wlh, wok)
					}
				}
			}
		}
	})
}
