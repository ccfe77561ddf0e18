package btree

// Height returns the number of inner levels above the leaves.
func (t *Tree) Height() int { return len(t.levels) }

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return t.nLeaves }
