// Package rel defines the tuple format and workload generators for the
// join benchmarks.
//
// Rows are 8 bytes — a 32-bit join key and a 32-bit payload — matching
// the paper's join input format (Section 4, "Join data"). Join inputs are
// foreign-key pairs: the build side R holds every key exactly once (in
// random order), the probe side S draws keys uniformly from R's domain,
// as in TEEBench's cache-exceed setting.
package rel

import (
	"fmt"

	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
)

// TupleBytes is the size of one row.
const TupleBytes = 8

// Relation is a table of packed (key, payload) rows.
type Relation struct {
	Name string
	Tup  *mem.U64Buf
}

// N returns the row count.
func (r *Relation) N() int { return r.Tup.Len() }

// Key returns the join key of row i.
func (r *Relation) Key(i int) uint32 { return mem.TupleKey(r.Tup.D[i]) }

// Payload returns the payload of row i.
func (r *Relation) Payload(i int) uint32 { return mem.TuplePayload(r.Tup.D[i]) }

// RowsForMB converts the paper's "X MB table" sizes to row counts.
func RowsForMB(mb int64) int { return int(mb << 20 / TupleBytes) }

// Alloc creates an uninitialized relation of n rows in region reg.
func Alloc(space *mem.Space, name string, n int, reg mem.Region) *Relation {
	if n <= 0 {
		panic(fmt.Sprintf("rel: relation %q needs at least one row, got %d", name, n))
	}
	return &Relation{Name: name, Tup: space.AllocU64(name, n, reg)}
}

// GenFK fills build (unique keys 1..n in random order) and probe (keys
// uniform over build's domain) for a foreign-key equi-join. Payloads are
// row identifiers. Deterministic in seed.
func GenFK(build, probe *Relation, seed uint64) {
	r := rng.NewXorShift(rng.Mix(seed))
	perm := make([]uint32, build.N())
	r.Permutation(perm)
	for i := range build.Tup.D {
		build.Tup.D[i] = mem.MakeTuple(perm[i]+1, uint32(i))
	}
	pr := r.Split(1)
	n := uint64(build.N())
	for i := range probe.Tup.D {
		probe.Tup.D[i] = mem.MakeTuple(uint32(pr.Uint64n(n))+1, uint32(i))
	}
}

// GenFKPair allocates and fills a build/probe pair with the given row
// counts in region reg.
func GenFKPair(space *mem.Space, nBuild, nProbe int, reg mem.Region, seed uint64) (build, probe *Relation) {
	build = Alloc(space, "R", nBuild, reg)
	probe = Alloc(space, "S", nProbe, reg)
	GenFK(build, probe, seed)
	return build, probe
}

// GenDim allocates and fills a standalone dimension relation: unique
// keys 1..n in random order, payload = row identifier. The same shape
// as GenFK's build side, for snowflake chain levels generated
// independently of a probe side. Deterministic in seed.
func GenDim(space *mem.Space, name string, n int, reg mem.Region, seed uint64) *Relation {
	d := Alloc(space, name, n, reg)
	r := rng.NewXorShift(rng.Mix(seed))
	perm := make([]uint32, n)
	r.Permutation(perm)
	for i := range d.Tup.D {
		d.Tup.D[i] = mem.MakeTuple(perm[i]+1, uint32(i))
	}
	return d
}

// GenSkewFK refills probe's keys with a self-similar (80/20) draw over
// the domain 1..dimN: 80% of the rows land in the first 20% of the key
// space, recursively at every scale — the skewed foreign keys of a real
// fact table. Payloads stay row identifiers. Deterministic in seed.
func GenSkewFK(probe *Relation, dimN int, seed uint64) {
	r := rng.NewXorShift(rng.Mix(seed))
	for i := range probe.Tup.D {
		lo, span := uint64(0), uint64(dimN)
		for span > 1 {
			head := (span + 4) / 5 // first 20% of the remaining span
			if r.Uint64n(5) != 0 { // 80% of the mass
				span = head
			} else {
				lo += head
				span -= head
			}
		}
		probe.Tup.D[i] = mem.MakeTuple(uint32(lo)+1, uint32(i))
	}
}

// Clone copies r into a new relation in region reg (used by in-place
// algorithms such as CrkJoin that must not destroy the shared inputs).
func Clone(space *mem.Space, r *Relation, name string, reg mem.Region) *Relation {
	c := Alloc(space, name, r.N(), reg)
	copy(c.Tup.D, r.Tup.D)
	return c
}

// ReferenceJoinCount computes the equi-join cardinality with a hash map,
// independent of any simulated machinery. Used as the test oracle.
func ReferenceJoinCount(build, probe *Relation) uint64 {
	m := make(map[uint32]uint32, build.N())
	for i := 0; i < build.N(); i++ {
		m[build.Key(i)]++
	}
	var total uint64
	for i := 0; i < probe.N(); i++ {
		total += uint64(m[probe.Key(i)])
	}
	return total
}
