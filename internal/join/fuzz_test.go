package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// FuzzSkylineMatchesNL decodes a byte schedule of change batches and query
// registrations and removals over two small streams, and after every op
// compares Skyline, driven both through Apply and through the pool's
// ApplyAll, with the NL oracle. The schedule steers the witness memo: ops
// toggle edges among eight vertices, so witnesses shrink, retire and return,
// removed queries' slots are taken by new ones, and shared vectors' entries
// outlive one owner or are freed and reissued; after every op both
// Skylines' witness memos must keep their invariants (checkPairMemos).
//
// Layout: byte 0 picks the depth and seeds the random source that builds
// the start graphs and query shapes. Each later op byte selects an op by
// its low two bits: 0 registers a query, 1 removes the live query the next
// byte indexes, and otherwise a batch reads one byte per edge toggle (three
// bits per endpoint).
func FuzzSkylineMatchesNL(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 0x13, 0x27, 0x41, 2, 0x05, 0x66, 1, 0})
	f.Add([]byte{5, 0, 4, 2, 0x10, 0x32, 0x54, 0x76, 3, 0x01, 1, 3, 0x10, 0x10, 0})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		b := make([]byte, 8+r.Intn(56))
		r.Read(b)
		f.Add(b)
	}
	// In one batch, a refuted pair's refuting vector gains a dominator while
	// the witness of another of its vectors retires.
	f.Add([]byte{0xff, 0x10, 0x87, 0x88, 0xb2, 0xc8, 0xbb, 0x6c})
	f.Add([]byte{0x11, 0x44, 0x91, 0x60, 0x3, 0xe9, 0x1e, 0xae, 0x94, 0xe7, 0xe2, 0x23, 0x38, 0x4b})
	f.Add([]byte{0x27, 0x9f, 0x45, 0xff, 0xd, 0xf9, 0x3a, 0x60, 0x96, 0x1, 0x2a, 0x97, 0x86})
	// Queries share maximal vectors: removals leave a shared entry, and its
	// witness, to the other owner, and free entries whose refs new queries'
	// different vectors take.
	f.Add([]byte{0x3, 0x0, 0x0, 0x0, 0x1, 0x0, 0x16, 0x2a, 0xc, 0x4, 0x1, 0x2, 0x3e, 0x5, 0x0})
	f.Add([]byte{0x6, 0x4, 0x4, 0x0, 0x1, 0x1, 0x1, 0x0, 0xa, 0x13, 0x0, 0x0, 0x1, 0x3})
	// Registrations after the streams raise a cap, so every stream reseals
	// under the new caps, and removals leave caps above every live count;
	// in the second, batches then run over the resealed vectors.
	f.Add([]byte{0xb9, 0x80, 0x9c, 0xd8, 0x11, 0x24})
	f.Add([]byte{0x1d, 0x38, 0xc5, 0x7c, 0x73, 0xb2, 0xf7, 0xca, 0xab, 0xd7})
	// The query holding a dimension's unique maximum leaves, and later
	// batches move a stream vertex's sealed count in that dimension between
	// the new live maximum and the cap left standing above it.
	f.Add([]byte{0x19, 0x67, 0x5c, 0x4c, 0x1d, 0x76, 0x62, 0x11, 0xda, 0x71, 0xb5, 0x42, 0x78, 0xfe, 0xd0, 0xca, 0xd5})
	// A vertex that witnesses nothing drops through rows another vertex
	// witnesses for joinable pairs: those witnesses must stay.
	f.Add([]byte{0x41, 0xc2, 0xe3, 0xf8})
	// In one step a witness drops below its entry, clearing it, and a later
	// vertex's rise crosses the same entry and dominates it: the queued
	// pairs' probe must find a witness again.
	f.Add([]byte{0xfe, 0xa2, 0xa0, 0xca})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		depth := 1 + int(data[0]%3)
		r := rand.New(rand.NewSource(int64(data[0])))
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}

		seq, par, nl := NewSkyline(depth), NewSkyline(depth), NewNL(depth)
		par.SetWorkers(4)
		filters := []core.DynamicFilter{seq, par, nl}
		graphs := map[core.StreamID]*graph.Graph{0: randomConnected(r, 6, 3, 2), 1: randomConnected(r, 6, 3, 2)}
		var live []core.QueryID
		nextQ := core.QueryID(0)
		// seen holds, per Skyline, the caps the checks have read: a cap may
		// rise, and must never fall.
		seen := []map[npv.Dim]int32{{}, {}}
		// addQuery registers a subgraph of stream sid, or of the other
		// stream when sid has no edge; it reports false when neither has one.
		addQuery := func(sid core.StreamID) bool {
			if graphs[sid].EdgeCount() == 0 {
				sid = 1 - sid
			}
			if graphs[sid].EdgeCount() == 0 {
				return false
			}
			q := randomSub(r, graphs[sid])
			for _, f := range filters {
				if err := f.AddQuery(nextQ, q); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, nextQ)
			nextQ++
			return true
		}
		check := func(op int) {
			want := nl.Candidates()
			for k, f := range []*Skyline{seq, par} {
				if got := f.Candidates(); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: Skyline candidates %v != NL %v", op, got, want)
				}
				checkPairMemos(t, &f.vecJoin, fmt.Sprintf("op %d", op))
				for d, c := range seen[k] {
					if now := f.ix.Cap(d); now < c {
						t.Fatalf("op %d: the cap of dimension %d fell from %d to %d", op, d, c, now)
					}
				}
				// A freed entry keeps its vector, so the caps a removed
				// query held stay recorded.
				for ref := int32(0); ref < int32(f.ix.Refs()); ref++ {
					u := f.ix.Entry(ref).Vec
					for i := 0; i < u.Len(); i++ {
						seen[k][u.Dim(i)] = f.ix.Cap(u.Dim(i))
					}
				}
			}
		}

		addQuery(0)
		addQuery(1)
		for sid := core.StreamID(0); sid < 2; sid++ {
			for _, f := range filters {
				if err := f.AddStream(sid, graphs[sid].Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(-1)
		for op := 0; len(data) > 0; op++ {
			b := next()
			switch {
			case b%4 == 0 && addQuery(core.StreamID(b>>2&1)):
			case b%4 == 1 && len(live) > 0:
				i := int(next()) % len(live)
				for _, f := range filters {
					if err := f.RemoveQuery(live[i]); err != nil {
						t.Fatal(err)
					}
				}
				live = append(live[:i], live[i+1:]...)
			default:
				// Bits 2–3 pick the streams (1: stream 0, 2: stream 1,
				// otherwise both), bits 4–5 the toggles per stream, less one.
				which, n := b>>2&3, 1+int(b>>4&3)
				batch := toggleBatch(r, graphs, func(sid core.StreamID, _ *graph.Graph, toggle func(u, v graph.VertexID)) {
					if which == 1 && sid != 0 || which == 2 && sid != 1 {
						return
					}
					for k := 0; k < n; k++ {
						e := next()
						toggle(graph.VertexID(e&7), graph.VertexID(e>>3&7))
					}
				})
				for _, f := range []core.Filter{seq, nl} {
					for _, sid := range batchStreamIDs(batch) {
						if err := f.Apply(sid, batch[sid]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := par.ApplyAll(batch); err != nil {
					t.Fatal(err)
				}
			}
			check(op)
		}
	})
}
