package core_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/fuzzsched"
	"nntstream/internal/fuzzsched/reference"
	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/join"
	"nntstream/internal/npv"
	"nntstream/internal/simdisk"
	"nntstream/internal/wal"
)

// configs are the engines the harness drives side by side, each in its own
// data dir: every production filter at one and two workers, and the exact
// filter, whose pairs every candidate set must keep. The exact engine is
// last. Its search stops at exactNodes nodes and then counts the pair as
// joinable, which bounds what a dense schedule costs it.
var configs = []struct {
	name    string
	workers int
	filter  func(depth int) core.Filter
}{
	{"NL/1", 1, func(d int) core.Filter { return join.NewNL(d) }},
	{"NL/2", 2, func(d int) core.Filter { return join.NewNL(d) }},
	{"Skyline/1", 1, func(d int) core.Filter { return join.NewSkyline(d) }},
	{"Skyline/2", 2, func(d int) core.Filter { return join.NewSkyline(d) }},
	{"DSC/1", 1, func(d int) core.Filter { return join.NewDSC(d) }},
	{"DSC/2", 2, func(d int) core.Filter { return join.NewDSC(d) }},
	{"Exact", 1, func(int) core.Filter { return join.NewExact(iso.WithNodeLimit(exactNodes)) }},
}

const exactNodes = 1000

// FuzzEngineMatchesReference decodes a fuzzsched.DecodeEngine schedule
// over two streams and drives one DurableEngine per config through it, each
// on its own simulated disk (internal/simdisk) and fsyncing every append:
// query registrations and removals, steps — a failing one must be rejected
// whole — batches of steps under one group commit, checkpoints, crashes and
// clean restarts. A crash is honest, keeping exactly what was synced, and
// must then lose no acknowledged record; or the disk lies and cuts bytes
// off the end of the log's records (see kill). After every op each engine
// must agree with one reference model (internal/fuzzsched/reference) on
// the candidates, the next IDs and the applied LSN, and the exact engine's
// pairs must be reference candidates: no false negatives. With fixture set
// the engines boot from testdata/sharded, a data dir written by an engine
// that split its streams over three filter shards, and the schedule
// continues from there. Outside fuzzing, which reaches cuts through the
// crash op, the final log's records are then cut at every byte.
//
// Seeds are in fuzzsched's format; see FuzzSkylineMatchesNL for the
// query and edge ops. The engine ops are 0x0a k (a batch of the next k
// steps), 0x1a (checkpoint), 0x2a n (crash: honest when n is a multiple of
// 4, else cutting n bytes) and 0x3a (restart).
func FuzzEngineMatchesReference(f *testing.F) {
	// At each depth, on a 6-vertex path and a 7-vertex wheel: a K3 query
	// and a subgraph of the wheel; a step; a batch whose second step
	// inserts the path's 0–2 (closing the K3) while a relabelling insert
	// fails the wheel's set; a crash; the removal of the newest query; that
	// failing step again, then a checkpoint; two steps, the second torn by
	// a crash; a K4 query, kept through an honest crash; a restart, a step
	// and an honest crash; an empty batch.
	for h := byte(0); h < 4; h++ {
		f.Add(false, []byte{h, 6, 1<<5 | 6, 3<<5 | 7, 0x03, 4<<5 | 3, 0x0b, 0x21,
			0x00, 0x14, 0x06, 0x01, 0x01, 0x02,
			0x0a, 3, 0x00, 0x35, 0x02, 0x00, 0x02, 0x06, 0x2c, 0x24, 0x02, 0x01, 0x14, 0x02,
			0x2a, 0, 0x07, 0x01, 0x00, 0x02, 0x06, 0x2c, 0x24, 0x02, 0x1a,
			0x00, 0x25, 0x02, 0x06, 0x00, 0x25, 0x02, 0x2a, 3,
			0x03, 4<<5 | 4, 0x2a, 0, 0x3a, 0x00, 0x15, 0x02, 0x2a, 0, 0x0a, 0})
	}
	// No checkpoint, so the final log holds every record kind for the
	// sweep: queries, streams, steps (one batched), a removal, and a step
	// after a crash tore the last record.
	f.Add(false, []byte{2, 6, 2<<5 | 5, 1<<5 | 4, 0x03, 4<<5 | 3, 0x03, 1<<5 | 3,
		0x00, 0x12, 0x02, 0x0a, 2, 0x01, 0x01, 0x02, 0x06, 0x00, 0x13, 0x02, 0x07, 0x00,
		0x00, 0x34, 0x02, 0x2a, 2, 0x00, 0x24, 0x02})
	// A crash that cuts every record: the streams are gone, so the steps
	// after it are rejected, while queries still register.
	f.Add(false, []byte{1, 6, 4<<5 | 4, 2<<5 | 5, 0x03, 4<<5 | 3, 0x00, 0x12, 0x02,
		0x2a, 0xff, 0x00, 0x12, 0x02, 0x03, 1<<5 | 3, 0x1a, 0x0a, 2, 0x01, 0x01, 0x02, 0x02})
	// The sharded fixture, torn and continued: a step, a crash that tears
	// it off, a query and a step on both streams, so the final log holds
	// the fixture's records too; and the same with a restart.
	f.Add(true, []byte{1, 6, 0, 0, 0x00, 0x45, 0x02, 0x2a, 2, 0x03, 1<<5 | 2,
		0x00, 0x56, 0x06, 0x00, 0x23, 0x02})
	f.Add(true, []byte{3, 6, 0, 0, 0x00, 0x45, 0x02, 0x3a, 0x03, 1<<5 | 2, 0x2a, 1})
	// A query both paths match, removed, then a batched step: the batch's
	// pair count must lose the removed query's pairs.
	f.Add(false, []byte{0, 0, 1<<5 | 6, 1<<5 | 6, 0x03, 1<<5 | 3, 0x07, 0, 0x0a, 1, 0x00, 0x25, 0x02})
	f.Fuzz(func(t *testing.T, fixture bool, data []byte) {
		h := newHarness(t, fuzzsched.DecodeEngine(data, 2, npv.MaxDepth), fixture)
		h.run()
		// Fuzzing reaches cuts through the crash op; the seeds sweep them all.
		if flag.Lookup("test.fuzz").Value.String() == "" {
			h.sweep()
		}
	})
}

// harness holds one engine per config, each on its own disk, and the
// reference model they must all agree with. added reports whether the
// streams are registered.
type harness struct {
	t       *testing.T
	sc      fuzzsched.Schedule
	added   bool
	disks   []*simdisk.Disk
	engines []*core.DurableEngine
	model   *reference.Model
}

// dataDir is each engine's data dir on its disk.
const dataDir = "data"

var walPath = filepath.Join(dataDir, "wal.log")

func newHarness(t *testing.T, sc fuzzsched.Schedule, fixture bool) *harness {
	h := &harness{t: t, sc: sc, added: fixture, engines: make([]*core.DurableEngine, len(configs)), model: reference.NewModel(sc.Depth)}
	t.Cleanup(func() {
		for _, d := range h.engines {
			_ = d.Crash()
		}
	})
	for i := range configs {
		h.disks = append(h.disks, simdisk.New())
		if fixture {
			for _, name := range []string{"checkpoint.json", "wal.log"} {
				data, err := os.ReadFile(filepath.Join("testdata/sharded", name))
				if err != nil {
					t.Fatal(err)
				}
				h.write(i, name, data)
			}
		}
		h.open(i)
	}
	if fixture {
		h.model = fixtureModel(t, sc.Depth)
		h.check(-1)
	}
	return h
}

// fixtureModel is the history that wrote testdata/sharded: recoveryOps[:4],
// a checkpoint, then recoveryOps[4:], all still in the log.
func fixtureModel(t *testing.T, depth int) *reference.Model {
	m := modelEngine{reference.NewModel(depth)}
	for i, op := range recoveryOps(t) {
		if i == 4 {
			m.Checkpoint()
		}
		if err := op(m); err != nil {
			t.Fatal(err)
		}
	}
	return m.Model
}

func parseGraph(t *testing.T, text string) *graph.Graph {
	gs, err := graph.ReadDatabase(strings.NewReader("t # 0\n" + text))
	if err != nil {
		t.Fatal(err)
	}
	return gs[0]
}

func (h *harness) fatalf(i int, format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf(configs[i].name+": "+format, args...)
}

// write stores a file in engine i's data dir, durably.
func (h *harness) write(i int, name string, data []byte) {
	h.disks[i].WriteFile(filepath.Join(dataDir, name), data)
}

// read returns engine i's log.
func (h *harness) read(i int) []byte {
	data, err := h.disks[i].ReadFile(walPath)
	if err != nil {
		h.fatalf(i, "reading the log: %v", err)
	}
	return data
}

// open boots engine i from its data dir.
func (h *harness) open(i int) {
	c := configs[i]
	d, err := core.OpenDurableEngine(dataDir, func() core.Filter { return c.filter(h.sc.Depth) },
		core.DurableOptions{Workers: c.workers, Fsync: wal.SyncAlways, FS: h.disks[i]})
	if err != nil {
		h.fatalf(i, "boot: %v", err)
	}
	h.engines[i] = d
}

// run drives the schedule. The streams are added before the first op
// that is not a registration, so queries registered first meet them as a
// batch, and later ones arrive live.
func (h *harness) run() {
	for k := 0; k < len(h.sc.Ops); k++ {
		op := h.sc.Ops[k]
		if op.Kind != fuzzsched.AddQuery && !h.added {
			h.addStreams()
		}
		switch op.Kind {
		case fuzzsched.AddQuery:
			want := h.model.AddQuery(op.Query)
			for i, d := range h.engines {
				if id, err := d.AddQuery(op.Query); err != nil || id != want {
					h.fatalf(i, "op %d: AddQuery = %d, %v; want %d", k, id, err, want)
				}
			}
		case fuzzsched.RemoveQuery:
			live := h.model.Live()
			if len(live) == 0 {
				continue // a crash took the queries back
			}
			id := live[op.Index%len(live)]
			_ = h.model.RemoveQuery(id)
			for i, d := range h.engines {
				if err := d.RemoveQuery(id); err != nil {
					h.fatalf(i, "op %d: RemoveQuery(%d): %v", k, id, err)
				}
			}
		case fuzzsched.Step:
			changes := changesOf(op)
			werr := h.model.Step(changes)
			want := h.model.Candidates()
			for i, d := range h.engines {
				got, err := d.StepAll(changes)
				if (err == nil) != (werr == nil) {
					h.fatalf(i, "op %d: StepAll(%v) = %v; the reference says %v", k, changes, err, werr)
				}
				if err == nil && !h.exact(i) && !slices.Equal(got, want) {
					h.fatalf(i, "op %d: StepAll reported %v; the reference has %v", k, got, want)
				}
			}
		case fuzzsched.Batch:
			var batch []map[core.StreamID]graph.ChangeSet
			for ; len(batch) < op.Index && k+1 < len(h.sc.Ops) && h.sc.Ops[k+1].Kind == fuzzsched.Step; k++ {
				batch = append(batch, changesOf(h.sc.Ops[k+1]))
			}
			applied, pairs := 0, 0
			for applied < len(batch) && h.model.Step(batch[applied]) == nil {
				applied++
				pairs += len(h.model.Candidates())
			}
			for i, d := range h.engines {
				n, got, err := d.StepAllBatch(batch)
				if n != applied || (err == nil) != (n == len(batch)) {
					h.fatalf(i, "op %d: StepAllBatch applied %d of %d steps (%v); want %d", k, n, len(batch), err, applied)
				}
				if !h.exact(i) && got != pairs {
					h.fatalf(i, "op %d: StepAllBatch reported %d pairs; the reference's steps have %d", k, got, pairs)
				}
			}
		case fuzzsched.Checkpoint:
			h.model.Checkpoint()
			for i, d := range h.engines {
				if err := d.Checkpoint(); err != nil {
					h.fatalf(i, "op %d: Checkpoint: %v", k, err)
				}
			}
		case fuzzsched.Crash:
			h.boot(h.kill(op.Index))
		case fuzzsched.Restart:
			h.model.Checkpoint()
			for i, d := range h.engines {
				if err := d.Close(); err != nil {
					h.fatalf(i, "op %d: Close: %v", k, err)
				}
				h.open(i)
			}
		}
		h.check(k)
	}
	if !h.added {
		h.addStreams()
	}
}

// changesOf is the engine's view of a step: each stream's change set as
// decoded, failing or not.
func changesOf(op fuzzsched.Op) map[core.StreamID]graph.ChangeSet {
	changes := make(map[core.StreamID]graph.ChangeSet)
	for s, cs := range op.Changes {
		if cs != nil {
			changes[core.StreamID(s)] = cs
		}
	}
	return changes
}

func (h *harness) addStreams() {
	for _, g := range h.sc.Streams {
		want := h.model.AddStream(g)
		for i, d := range h.engines {
			if id, err := d.AddStream(g); err != nil || id != want {
				h.fatalf(i, "AddStream = %d, %v; want %d", id, err, want)
			}
		}
	}
	h.added = true
	h.check(-1)
}

// kill cuts the power: it crashes every disk, then releases its engine,
// and returns the log that survives, which must be the same bytes on every
// disk. The disk goes first, so an engine flushes nothing it had not
// synced before the cut. When n is a multiple of 4 the crash is honest: it
// keeps what was synced, and since the engines fsync every append it must
// keep every record the reference acknowledged. Otherwise the disk lies
// about the log's last n bytes of records and loses them, zeroing them in
// front of the zero tail at even n and ending the file there at odd n (see
// torn).
func (h *harness) kill(n int) []byte {
	log := h.logs(func(int) {})
	acked, end := records(log)
	if acked != h.model.Records() {
		h.t.Fatalf("the log holds %d records; the reference acknowledged %d", acked, h.model.Records())
	}
	cut := max(0, end-n)
	log = h.logs(func(i int) {
		if n%4 == 0 {
			h.disks[i].Crash(0)
		} else {
			h.disks[i].CrashLying(walPath, cut, n%2 == 0 && cut >= 8)
		}
		if err := h.engines[i].Crash(); err != nil {
			h.fatalf(i, "Crash: %v", err)
		}
	})
	if got, _ := records(log); n%4 == 0 && got != h.model.Records() {
		h.t.Fatalf("an honest crash left %d records; the reference acknowledged %d", got, h.model.Records())
	}
	return log
}

// logs runs do on each engine's index and returns their log, which must be
// the same bytes for all of them.
func (h *harness) logs(do func(i int)) []byte {
	var log []byte
	for i := range h.engines {
		do(i)
		data := h.read(i)
		if i > 0 && !bytes.Equal(data, log) {
			h.fatalf(i, "the log differs from %s's", configs[0].name)
		}
		log = data
	}
	return log
}

// boot restarts every engine on its disk, and the model on the records
// that survive in log.
func (h *harness) boot(log []byte) {
	n, _ := records(log)
	h.model = h.model.Recover(n)
	for i := range h.engines {
		h.open(i)
	}
}

// records counts the whole frames in a log that may be cut short, and
// returns where they end: after an 8-byte magic, each frame is a 4-byte
// payload length, a 4-byte CRC and the payload. Like the log's own scan,
// it stops at a zero length, where the zero tail the log keeps past its
// records begins, and at a frame cut short or zeroed.
func records(log []byte) (n, end int) {
	for end = 8; end+8 <= len(log); n++ {
		size := int(binary.LittleEndian.Uint32(log[end:]))
		if size == 0 || end+8+size > len(log) ||
			crc32.ChecksumIEEE(log[end+8:end+8+size]) != binary.LittleEndian.Uint32(log[end+4:]) {
			break
		}
		end += 8 + size
	}
	return n, end
}

// torn is log as a crash at byte cut of its records leaves it. With
// keepTail the file keeps its length and holds zeros from the cut on, a
// torn overwrite of the log's zero tail; otherwise it ends at the cut, a
// torn extension or a log written before the tail existed. A cut into the
// magic always ends the file: the magic is written alone, before any tail.
func torn(log []byte, cut int, keepTail bool) []byte {
	if !keepTail || cut < 8 {
		return log[:cut:cut]
	}
	return append(log[:cut:cut], make([]byte, len(log)-cut)...)
}

// check holds every engine to the model after op k (-1 for a boot).
func (h *harness) check(k int) {
	h.t.Helper()
	for i := range h.engines {
		h.checkEngine(k, i)
	}
}

// exact reports whether engine i runs the exact filter, which may report
// pairs the reference does not (its search stops at exactNodes).
func (h *harness) exact(i int) bool { return i == len(configs)-1 }

func (h *harness) checkEngine(k, i int) {
	h.t.Helper()
	d, want := h.engines[i], h.model.Candidates()
	got := d.Candidates()
	if h.exact(i) {
		for _, p := range got {
			// Exact counts a pair whose search hit the node limit as joinable,
			// so only a pair with an embedding must be a reference candidate.
			if g, q := h.model.Graphs(p); !slices.Contains(want, p) && iso.NewMatcher(q, iso.WithNodeLimit(exactNodes)).FirstEmbedding(g) != nil {
				h.fatalf(i, "op %d: the reference misses the exact pair %v", k, p)
			}
		}
	} else if !slices.Equal(got, want) {
		h.fatalf(i, "op %d: candidates %v; the reference has %v", k, got, want)
	}
	wq, ws := h.model.NextIDs()
	if q, s := d.NextIDs(); q != wq || s != ws {
		h.fatalf(i, "op %d: next IDs (%d, %d); want (%d, %d)", k, q, s, wq, ws)
	}
	if lsn := d.AppliedLSN(); lsn != h.model.LSN() {
		h.fatalf(i, "op %d: applied LSN %d; want %d", k, lsn, h.model.LSN())
	}
}

// sweep cuts the final log's records at every byte, keeping the zero tail
// at even cuts and ending the file at odd ones, and boots each cut on the
// last checkpoint, the configs taking the cuts in turn.
func (h *harness) sweep() {
	log, final := h.kill(0), h.model
	_, end := records(log)
	models := make(map[int]*reference.Model)
	for cut := 0; cut <= end; cut++ {
		data, i := torn(log, cut, cut%2 == 0), cut%len(configs)
		n, _ := records(data)
		if models[n] == nil {
			models[n] = final.Recover(n)
		}
		h.model = models[n]
		h.write(i, "wal.log", data)
		h.open(i)
		h.checkEngine(-1, i)
		if err := h.engines[i].Crash(); err != nil {
			h.t.Fatal(err)
		}
	}
}
