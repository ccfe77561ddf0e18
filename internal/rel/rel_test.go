package rel

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sgxbench/internal/mem"
)

var reg = mem.Region{Kind: mem.EPC}

// checkDim requires r to hold the keys 1..n exactly once each, with
// payload = row id.
func checkDim(t *testing.T, r *Relation) {
	t.Helper()
	seen := make([]bool, r.N()+1)
	for i := 0; i < r.N(); i++ {
		k := int(r.Key(i))
		if k < 1 || k > r.N() || seen[k] {
			t.Fatalf("%s row %d: key %d is out of 1..%d or repeated", r.Name, i, k, r.N())
		}
		seen[k] = true
		if r.Payload(i) != uint32(i) {
			t.Fatalf("%s row %d: payload %d, want the row id", r.Name, i, r.Payload(i))
		}
	}
}

func TestGenFK(t *testing.T) {
	const nBuild, nProbe = 1000, 5000
	build, probe := GenFKPair(mem.NewSpace(1), nBuild, nProbe, reg, 3)
	if build.N() != nBuild || probe.N() != nProbe || int64(build.N())*TupleBytes != nBuild*TupleBytes {
		t.Fatalf("sizes: build %d (%d B), probe %d", build.N(), int64(build.N())*TupleBytes, probe.N())
	}
	checkDim(t, build)
	for i := 0; i < nProbe; i++ {
		if k := probe.Key(i); k < 1 || k > nBuild || probe.Payload(i) != uint32(i) {
			t.Fatalf("probe row %d: key %d payload %d", i, k, probe.Payload(i))
		}
	}
	if got := ReferenceJoinCount(build, probe); got != nProbe {
		t.Fatalf("ReferenceJoinCount = %d, want %d (every probe key matches once)", got, nProbe)
	}
}

func TestGenDim(t *testing.T) {
	d := GenDim(mem.NewSpace(1), "D", 777, reg, 11)
	if d.Name != "D" || d.Tup.Reg != reg {
		t.Fatalf("GenDim placed %q in %+v", d.Name, d.Tup.Reg)
	}
	checkDim(t, d)
}

// TestGenSkewFK: keys stay inside the dimension's domain and the 80/20
// split holds at the top level of the recursion.
func TestGenSkewFK(t *testing.T) {
	const rows = 100_000
	for _, dimN := range []int{5, 1000, 65536} {
		probe := Alloc(mem.NewSpace(1), "S", rows, reg)
		GenSkewFK(probe, dimN, 17)
		head := (dimN + 4) / 5
		inHead := 0
		for i := 0; i < rows; i++ {
			k := int(probe.Key(i))
			if k < 1 || k > dimN || probe.Payload(i) != uint32(i) {
				t.Fatalf("dimN %d row %d: key %d payload %d", dimN, i, k, probe.Payload(i))
			}
			if k <= head {
				inHead++
			}
		}
		if frac := float64(inHead) / rows; frac < 0.75 {
			t.Errorf("dimN %d: %.3f of rows in the first 20%% of keys, want >= 0.75", dimN, frac)
		}
	}
}

func TestClone(t *testing.T) {
	space := mem.NewSpace(2)
	src := GenDim(space, "D", 100, reg, 1)
	to := mem.Region{Node: 1}
	c := Clone(space, src, "D2", to)
	if c.Name != "D2" || c.Tup.Reg != to || c.Tup.Base == src.Tup.Base {
		t.Fatalf("clone %q at %#x in %+v", c.Name, c.Tup.Base, c.Tup.Reg)
	}
	for i := range src.Tup.D {
		if c.Tup.D[i] != src.Tup.D[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	c.Tup.D[0]++
	if c.Tup.D[0] == src.Tup.D[0] {
		t.Fatal("clone shares its rows with the source")
	}
}

func TestRowsForMB(t *testing.T) {
	for mb, want := range map[int64]int{0: 0, 1: 131072, 100: 13107200} {
		if got := RowsForMB(mb); got != want {
			t.Errorf("RowsForMB(%d) = %d, want %d", mb, got, want)
		}
	}
}

func TestAllocRejectsEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(n=%d) did not panic", n)
				}
			}()
			Alloc(mem.NewSpace(1), "R", n, reg)
		}()
	}
}

// fnvRows is the FNV-1a hash of r's rows as little-endian words.
func fnvRows(r *Relation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.Tup.D {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGeneratorsPinned pins every join input generator's output at fixed
// seeds, so a change to the generators or to the rng streams under them
// cannot silently move the join workloads.
func TestGeneratorsPinned(t *testing.T) {
	space := mem.NewSpace(1)
	build, probe := GenFKPair(space, 1000, 3000, reg, 7)
	dim := GenDim(space, "D", 777, reg, 11)
	skew := Alloc(space, "K", 4096, reg)
	GenSkewFK(skew, 1000, 13)
	for _, c := range []struct {
		r    *Relation
		want uint64
	}{
		{build, 0x59be2911c3dfce48},
		{probe, 0x7398f820b3c3ce89},
		{dim, 0xb52c69c805b9a891},
		{skew, 0x9d6a5b54fdc8d3ec},
	} {
		if got := fnvRows(c.r); got != c.want {
			t.Errorf("%s: FNV-64 %#x, want %#x", c.r.Name, got, c.want)
		}
	}
}
