package obs

import (
	"fmt"
	"io"
)

// Profiler is a hierarchical cycle-attribution registry: a tree of
// named scopes whose inclusive cycles come from the caller (exec.Group
// measures them over Mark/Since on its own clock), with leaf phases
// carrying engine-counter attributions. Repeated entries of the same
// scope under the same parent merge: cycles and counts accumulate, so
// one profiler can span benchmark repetitions.
//
// Like every type in this package it only records what it is told —
// attaching a profiler to a pipeline run changes no simulated number.
type Profiler struct {
	root  *Node
	stack []*Node
}

// Node is one scope of the profile tree.
type Node struct {
	Name string
	// Cycles is the node's inclusive virtual-clock cycles; Count how
	// many times the scope was entered (or the leaf recorded).
	Cycles uint64
	Count  uint64
	// Attrs carries engine-counter attributions on leaf phases (work
	// cycles, SSB stalls, EPC paging), merged by key across records.
	Attrs    []Attr
	Children []*Node
}

// NewProfiler returns a profiler with a root scope of the given name.
func NewProfiler(root string) *Profiler {
	return &Profiler{root: &Node{Name: root, Count: 1}}
}

// Root returns the profile tree.
func (p *Profiler) Root() *Node { return p.root }

// current is the innermost open scope (the root when none is open).
func (p *Profiler) current() *Node {
	if n := len(p.stack); n > 0 {
		return p.stack[n-1]
	}
	return p.root
}

// child finds or creates the named child of n.
func (n *Node) child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &Node{Name: name}
	n.Children = append(n.Children, c)
	return c
}

// SelfCycles returns the node's inclusive cycles minus its children's,
// saturating at zero — the folded-stack self time.
func (n *Node) SelfCycles() uint64 {
	var kids uint64
	for _, c := range n.Children {
		kids += c.Cycles
	}
	if kids >= n.Cycles {
		return 0
	}
	return n.Cycles - kids
}

// Push opens a scope named name under the current one.
func (p *Profiler) Push(name string) {
	c := p.current().child(name)
	c.Count++
	p.stack = append(p.stack, c)
}

// Pop closes the current scope, attributing cycles inclusive cycles to
// it. Panics on an empty stack — an unbalanced Push/Pop is a
// programming error, not a data condition.
func (p *Profiler) Pop(cycles uint64) {
	if len(p.stack) == 0 {
		panic("obs: Profiler.Pop without matching Push")
	}
	n := p.stack[len(p.stack)-1]
	n.Cycles += cycles
	p.stack = p.stack[:len(p.stack)-1]
	if len(p.stack) == 0 {
		p.root.Cycles += cycles
	}
}

// Leaf records a completed leaf phase of cycles under the current
// scope, merging attrs by key.
func (p *Profiler) Leaf(name string, cycles uint64, attrs []Attr) {
	n := p.current().child(name)
	n.Cycles += cycles
	n.Count++
	for _, a := range attrs {
		n.addAttr(a)
	}
}

func (n *Node) addAttr(a Attr) {
	for i := range n.Attrs {
		if n.Attrs[i].Key == a.Key {
			n.Attrs[i].Val += a.Val
			return
		}
	}
	n.Attrs = append(n.Attrs, a)
}

// WriteTree writes the profile as an indented per-operator x per-phase
// cycle tree.
func (p *Profiler) WriteTree(w io.Writer) error {
	return writeTree(w, p.root, 0)
}

func writeTree(w io.Writer, n *Node, depth int) error {
	if _, err := fmt.Fprintf(w, "%*s%-*s %12d cycles  x%d", 2*depth, "", 28-2*depth, n.Name, n.Cycles, n.Count); err != nil {
		return err
	}
	for _, a := range n.Attrs {
		if _, err := fmt.Fprintf(w, "  %s=%d", a.Key, a.Val); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeTree(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// WriteFolded writes the profile as folded stacks — one
// "root;scope;...;leaf selfCycles" line per node with nonzero self
// time, flamegraph-compatible (feed to inferno / flamegraph.pl).
func (p *Profiler) WriteFolded(w io.Writer) error {
	return writeFolded(w, p.root, "")
}

func writeFolded(w io.Writer, n *Node, prefix string) error {
	path := n.Name
	if prefix != "" {
		path = prefix + ";" + n.Name
	}
	if self := n.SelfCycles(); self > 0 {
		if _, err := fmt.Fprintf(w, "%s %d\n", path, self); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := writeFolded(w, c, path); err != nil {
			return err
		}
	}
	return nil
}
