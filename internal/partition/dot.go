package partition

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the split tree in Graphviz DOT format: internal nodes are
// labeled with the E-Scenario that split them, leaves with their member
// EIDs (vague members parenthesized). It is the debugging view of the
// paper's binary-tree argument (Theorem 4.1).
func (p *Partition) WriteDOT(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("digraph splittree {\n")
	sb.WriteString("  node [fontname=\"monospace\" fontsize=10];\n")
	next := 0
	var walk func(n *Node) int
	walk = func(n *Node) int {
		id := next
		next++
		if n.isLeaf() {
			fmt.Fprintf(&sb, "  n%d [shape=box label=%q];\n", id, leafLabel(n))
			return id
		}
		fmt.Fprintf(&sb, "  n%d [shape=ellipse label=\"scenario %d\"];\n", id, n.Scenario)
		left := walk(n.Left)
		fmt.Fprintf(&sb, "  n%d -> n%d [label=\"in\"];\n", id, left)
		right := walk(n.Right)
		fmt.Fprintf(&sb, "  n%d -> n%d [label=\"out\"];\n", id, right)
		return id
	}
	walk(p.root)
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// leafLabel summarizes a leaf's membership, deterministically ordered.
func leafLabel(n *Node) string {
	var parts []string
	for _, e := range n.InclusiveEIDs() {
		parts = append(parts, string(e))
	}
	for _, e := range n.VagueEIDs() {
		parts = append(parts, "("+string(e)+"?)")
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, "\\n")
}

// Stats summarizes the split tree for analysis: leaf count, tree depth, and
// the recorded-scenario count against Theorem 4.2's n−1 bound.
type Stats struct {
	Targets  int
	Leaves   int
	Depth    int
	Recorded int
	Resolved int
	BoundNm1 int
}

// TreeStats computes the current tree statistics.
func (p *Partition) TreeStats() Stats {
	st := Stats{
		Targets:  len(p.home),
		Leaves:   p.numSets,
		Recorded: len(p.recorded),
		BoundNm1: len(p.home) - 1,
	}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n == nil {
			return
		}
		if depth > st.Depth {
			st.Depth = depth
		}
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(p.root, 0)
	for _, leaf := range p.home {
		if leaf.nInc == 1 {
			st.Resolved++
		}
	}
	return st
}
