package join

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
)

// outChunkRows is the number of rows per materialization chunk: output
// memory without a pre-allocated buffer is claimed from the Env's space
// one chunk at a time during the join. A claim costs no simulated cycles;
// the paper's Fig 12 cost of growing an enclave is charged by the serving
// model (serve.MemDynamic), not by operators.
const outChunkRows = 1 << 16

// outWriter materializes join output tuples for one worker thread.
//
// Two backing modes: by default output chunks are claimed as the join
// runs, so their simulated addresses depend on the order in which the
// workers claim them; with a pre-allocated fixed buffer (Options.OutBufs)
// every store lands at a deterministic simulated address, which is what
// makes multi-threaded materializing pipelines reproducible enough for
// exact golden-stats gating. A fixed buffer that fills up falls back to
// chunk claims (correct, but no longer address-deterministic).
type outWriter struct {
	env    *core.Env
	id     int
	fixed  *mem.U64Buf // pre-allocated rows (nil: chunk mode only)
	fpos   int
	chunks []*mem.U64Buf
	cur    *mem.U64Buf
	pos    int
	rows   []uint64
}

func newOutWriter(env *core.Env, id int, fixed *mem.U64Buf) *outWriter {
	return &outWriter{env: env, id: id, fixed: fixed}
}

// append writes one output row; dep is the token the row's fields were
// loaded at (the store's data dependency — the address is a sequential
// cursor and thus statically known). In fixed mode the pre-allocated
// buffer's backing data IS the materialized output — no host-side copy
// is kept; rows only collects chunk-mode (overflow) output.
func (w *outWriter) append(t *engine.Thread, row uint64, dep engine.Tok) {
	if w.fixed != nil && w.fpos < w.fixed.Len() {
		engine.StoreU64(t, w.fixed, w.fpos, row, 0, dep)
		w.fpos++
		return
	}
	if w.cur == nil || w.pos == w.cur.Len() {
		w.cur = w.env.Space.AllocU64("out", outChunkRows, w.env.DataRegion())
		w.chunks = append(w.chunks, w.cur)
		w.pos = 0
	}
	engine.StoreU64(t, w.cur, w.pos, row, 0, dep)
	w.rows = append(w.rows, row)
	w.pos++
}

// result returns all rows written by this worker, in append order. In
// fixed mode without overflow this aliases the pre-allocated buffer's
// backing data (callers treat it as read-only).
func (w *outWriter) result() []uint64 {
	if w.fixed == nil {
		return w.rows
	}
	if len(w.rows) == 0 {
		return w.fixed.D[:w.fpos]
	}
	return append(append(make([]uint64, 0, w.fpos+len(w.rows)), w.fixed.D[:w.fpos]...), w.rows...)
}
