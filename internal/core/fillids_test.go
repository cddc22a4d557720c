package core

import (
	"net/netip"
	"slices"
	"testing"
)

// fillIDsByMap is FillIDs as it was before the translation column: a
// column that is not this table's own is dropped and every key goes
// through the prefix map, in snapshot order. FuzzFillIDsForeign holds
// FillIDs to it.
func fillIDsByMap(tb *FlowTable, s *FlowSnapshot) {
	if s.HasIDs() && s.idTable == tb {
		return
	}
	s.ids = s.ids[:0]
	for _, p := range s.keys {
		s.ids = append(s.ids, tb.Intern(p))
	}
	s.idTable = tb
}

// fillProducer is a table-owning producer as the stream accumulator is
// one: it interns the flows it sees, emits the active ones in prefix
// order with their IDs, and releases them as they go quiet.
type fillProducer struct {
	tb     *FlowTable
	active [16]bool
}

// Op bytes of FuzzFillIDsForeign: kind in the top three bits, modulo
// the six kinds (6 and 7 repeat 0 and 1), pool index in the low four;
// bit 4 picks the second producer (or, for fOpBare, the ID column
// without a stamp).
const (
	fOpIntern   = 0 << 5 // producer interns pool[k]; the flow is active
	fOpRelease  = 1 << 5 // producer releases pool[k] if bound; inactive
	fOpEmit     = 2 << 5 // producer emits its active flows → CopyFrom → FillIDs
	fOpConsRel  = 3 << 5 // consumer releases pool[k] if bound, as a classifier evicts
	fOpBare     = 4 << 5 // first producer's flows emitted with no ID column, or an unstamped one
	fOpIdle     = 5 << 5 // producer's pool[k] goes quiet but keeps its ID
	fOpSecond   = 1 << 4
	fPinnedFlag = 1
)

// FuzzFillIDsForeign drives two producer tables (intern, release, an
// ID recycled to another prefix) and one consumer table
// (classifier-style Release; pinned when the first byte's low bit is
// set) from one op stream. Every emitted snapshot crosses CopyFrom,
// which must carry the ID column and the producer's stamp, and is then
// filled twice: by FillIDs on the consumer and by the map-only
// fillIDsByMap on a second consumer kept in lockstep.
// After every fill each ids[i] must equal Lookup(keys[i]), the two
// columns must be equal, and the two tables must be in the same state
// (bindings, lifecycle states, free list) — identical, not equivalent.
// The translation column itself must hold only entries learnt from the
// table it is stamped with: a column from the other producer starts it
// empty. The pool's first prefix is the zero Prefix, which is what a
// free slot holds — the one key that tells "bound to p" from "free".
func FuzzFillIDsForeign(f *testing.F) {
	// Producer recycles an ID to another prefix between two emissions.
	f.Add([]byte{0, fOpIntern | 1, fOpIntern | 2, fOpEmit, fOpRelease | 1, fOpIntern | 3, fOpEmit, fOpEmit})
	// Consumer frees the zero prefix's ID; the producer still sends it.
	f.Add([]byte{0, fOpIntern | 0, fOpIntern | 1, fOpEmit, fOpConsRel | 0, fOpEmit, fOpEmit})
	// The second producer's column arrives after the first one's.
	f.Add([]byte{0, fOpIntern | 1, fOpIntern | 2, fOpIntern | 3, fOpEmit, fOpSecond | fOpIntern | 1, fOpSecond | fOpEmit, fOpEmit, fOpSecond | fOpEmit})
	// Consumer frees a flow that then returns (a stale translation
	// entry), recycles another's ID to a third prefix; pinned likewise.
	f.Add([]byte{0, fOpIntern | 1, fOpIntern | 2, fOpEmit, fOpConsRel | 1, fOpEmit, fOpConsRel | 2, fOpIdle | 2, fOpIntern | 5, fOpEmit, fOpIntern | 2, fOpEmit})
	f.Add([]byte{fPinnedFlag, fOpIntern | 1, fOpIntern | 2, fOpEmit, fOpConsRel | 1, fOpRelease | 2, fOpIntern | 7, fOpEmit, fOpBare, fOpSecond | fOpBare, fOpEmit})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		pool := make([]netip.Prefix, 16) // ascending in ComparePrefix order
		for i := 1; i < len(pool); i++ {
			pool[i] = pfx(i)
		}
		producers := [2]*fillProducer{{tb: NewFlowTable()}, {tb: NewFlowTable()}}
		cons, ref := NewFlowTable(), NewFlowTable()
		if ops[0]&fPinnedFlag != 0 {
			cons.Pin()
			ref.Pin()
		}
		src, bufC, bufR := NewFlowSnapshot(0), NewFlowSnapshot(0), NewFlowSnapshot(0)
		learnt := make(map[uint32]bool) // foreign IDs sent since the stamp last changed

		for i, op := range ops[1:] {
			pr := producers[op>>4&1]
			k := int(op & 0x0f)
			kind := (op >> 5) % 6 << 5
			switch kind {
			case fOpIntern:
				pr.tb.Intern(pool[k])
				pr.active[k] = true
			case fOpRelease:
				if id, ok := pr.tb.Lookup(pool[k]); ok {
					pr.tb.Release(id)
				}
				pr.active[k] = false
			case fOpIdle:
				pr.active[k] = false
			case fOpConsRel:
				if id, ok := cons.Lookup(pool[k]); ok {
					cons.Release(id)
					ref.Release(id)
				}
			case fOpEmit, fOpBare:
				bare := kind == fOpBare
				if bare {
					pr = producers[0]
				}
				src.Reset()
				for k, on := range pr.active {
					switch {
					case !on:
					case bare && op&fOpSecond == 0:
						src.Append(pool[k], float64(k+1))
					default:
						src.AppendID(pool[k], pr.tb.Intern(pool[k]), float64(k+1))
					}
				}
				if !bare {
					src.SetIDTable(pr.tb)
				}
				bufC.CopyFrom(src)
				bufR.CopyFrom(src)
				if !slices.Equal(bufC.ids, src.ids) || bufC.idTable != src.idTable || !slices.Equal(bufC.keys, src.keys) {
					t.Fatalf("op %d: CopyFrom carried ids %v stamp %p, the producer sent %v stamp %p", i, bufC.ids, bufC.idTable, src.ids, src.idTable)
				}
				if !bare {
					if cons.foreign != pr.tb {
						clear(learnt)
					}
					for _, fid := range src.ids {
						learnt[fid] = true
					}
				}

				cons.FillIDs(bufC)
				fillIDsByMap(ref, bufR)

				if !bufC.HasIDs() || bufC.idTable != cons {
					t.Fatalf("op %d: FillIDs left %d ids for %d keys, stamp %p", i, len(bufC.ids), len(bufC.keys), bufC.idTable)
				}
				for row, p := range bufC.keys {
					if id, ok := cons.Lookup(p); !ok || id != bufC.ids[row] {
						t.Fatalf("op %d: row %d (%v) got id %d, Lookup says %d (bound %v)", i, row, p, bufC.ids[row], id, ok)
					}
					if !bare && cons.foreignIDs[src.ids[row]] != bufC.ids[row]+1 {
						t.Fatalf("op %d: row %d (%v): foreign id %d translates to entry %d after a fill that returned %d", i, row, p, src.ids[row], cons.foreignIDs[src.ids[row]], bufC.ids[row])
					}
				}
				if !slices.Equal(bufC.ids, bufR.ids) {
					t.Fatalf("op %d: FillIDs gave %v, the map-only fill %v", i, bufC.ids, bufR.ids)
				}
				if !bare && cons.foreign != pr.tb {
					t.Fatalf("op %d: translation column learnt from %p, the column was stamped %p", i, cons.foreign, pr.tb)
				}
				for fid, e := range cons.foreignIDs {
					if e != 0 && !learnt[uint32(fid)] {
						t.Fatalf("op %d: translation entry %d -> %d was not learnt from the current foreign table", i, fid, e-1)
					}
				}
			}
			if !slices.Equal(cons.prefixes, ref.prefixes) || !slices.Equal(cons.state, ref.state) ||
				!slices.Equal(cons.free, ref.free) || cons.Len() != ref.Len() || cons.bindGen != ref.bindGen {
				t.Fatalf("op %d: consumer table diverged from the map-only one:\n prefixes %v / %v\n state %v / %v\n free %v / %v", i,
					cons.prefixes, ref.prefixes, cons.state, ref.state, cons.free, ref.free)
			}
		}
	})
}
