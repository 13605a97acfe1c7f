// Package partition implements EID set splitting, the E stage of EV-Matching
// (paper §IV-B1, Algorithm 1). A Partition tracks the sets of mutually
// undistinguishable EIDs as a binary split tree: each effective E-Scenario
// splits a leaf into the EIDs appearing in the scenario (left child) and the
// rest (right child). When every leaf holds a single (inclusive) EID, the
// scenarios recorded along each EID's root-to-leaf path form its
// distinguishing list for the V stage.
//
// The practical setting (§IV-C2, Theorem 4.3) is supported through vague
// attributes: an EID that is vague — near a cell border, or only
// intermittently observed — is never used to confirm a split. A node-inclusive
// EID that is only vaguely present in the splitting scenario keeps its
// definite home on the right (not-confirmed) side and leaves a vague copy on
// the left, so every EID always has exactly one inclusive home leaf while its
// possible drift locations remain marked.
//
// Sets are dense bitsets over a per-partition EID index (assigned in sorted
// EID order, so ascending bit iteration yields sorted EIDs): one split is a
// handful of word-wide AND/AND-NOT operations against the scenario's
// membership masks, instead of per-EID map traffic.
package partition

import (
	"errors"
	"fmt"
	"sort"

	"evmatching/internal/bitset"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// ErrNoTargets reports an attempt to build a partition with no EIDs.
var ErrNoTargets = errors.New("partition: no target EIDs")

// ErrUnknownEID reports a query for an EID outside the partition.
var ErrUnknownEID = errors.New("partition: unknown EID")

// eidIndex is the partition's fixed EID universe: bit i of every node set
// refers to eids[i]. EIDs are indexed in sorted order.
type eidIndex struct {
	eids []ids.EID
	pos  map[ids.EID]int
}

// Node is one set of mutually undistinguishable EIDs in the split tree.
// Leaves hold live sets; internal nodes remember the scenario that split
// them. A node's member sets are immutable once the node is created.
type Node struct {
	idx *eidIndex
	// inc holds the inclusive members (definitely in this set); vag the
	// vague members (may belong here or in a sibling). The two are disjoint.
	inc, vag bitset.Set
	// nInc caches inc.Count(): SplitBy and Done read it per touched leaf.
	nInc int
	// seen is the SplitBy call that last probed this node or created it, so
	// a leaf shared by several of the scenario's members is probed once.
	seen uint64
	// Scenario is the E-Scenario that split this node (internal nodes only).
	Scenario scenario.ID
	// Left holds the EIDs confirmed by Scenario; Right holds the rest.
	Left  *Node
	Right *Node
}

// isLeaf reports whether n has not been split.
func (n *Node) isLeaf() bool { return n.Left == nil && n.Right == nil }

// InclusiveEIDs returns the sorted inclusive members.
func (n *Node) InclusiveEIDs() []ids.EID {
	out := make([]ids.EID, 0, n.nInc)
	n.inc.ForEach(func(i int) { out = append(out, n.idx.eids[i]) })
	return out
}

// VagueEIDs returns the sorted vague members.
func (n *Node) VagueEIDs() []ids.EID {
	out := make([]ids.EID, 0, n.vag.Count())
	n.vag.ForEach(func(i int) { out = append(out, n.idx.eids[i]) })
	return out
}

// Partition is the evolving partition of the target EIDs, with the split
// tree that produced it. It is not safe for concurrent use.
type Partition struct {
	idx  *eidIndex
	root *Node
	// home[i] is the inclusive home leaf of idx.eids[i]. Every leaf is the
	// home of at least one EID (both children of an effective split keep an
	// inclusive member), so the leaves are exactly the distinct home values.
	home []*Node
	// numSets counts the leaves; multi counts those still holding ≥2
	// inclusive EIDs. Both are maintained per split, so NumSets and Done
	// never walk anything.
	numSets, multi int
	// calls numbers the SplitBy invocations for Node.seen.
	calls    uint64
	recorded []scenario.ID
	inRec    map[scenario.ID]bool
	// sInc/sVag/sAny are the reusable scenario-membership masks SplitBy
	// rebuilds per call; tInc/tOut/tVag are splitNode's probe scratches,
	// cloned into child nodes only when a split is actually effective.
	sInc, sVag, sAny bitset.Set
	tInc, tOut, tVag bitset.Set
	// onResolve, when set, is called with each EID the moment its inclusive
	// home leaf shrinks to a singleton — the hook the blocking layer uses to
	// retire resolved targets from its live set. Leaves only ever
	// shrink, so a resolved EID is resolved forever and the callback fires
	// exactly once per EID.
	onResolve func(ids.EID)
}

// OnResolve registers fn to be called as each target EID becomes resolved
// (its home leaf's inclusive count reaches 1). Pass nil to unregister. EIDs
// already resolved at registration time are not replayed.
func (p *Partition) OnResolve(fn func(ids.EID)) { p.onResolve = fn }

// New creates the initial one-set partition over the target EIDs, all
// inclusive (paper: "Initially, all EIDs are in one set").
func New(targets []ids.EID) (*Partition, error) {
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	idx := &eidIndex{pos: make(map[ids.EID]int, len(targets))}
	for _, e := range targets {
		if e == ids.None {
			return nil, fmt.Errorf("partition: target list contains the empty EID")
		}
		if _, dup := idx.pos[e]; !dup {
			idx.pos[e] = 0 // position assigned after sorting
			idx.eids = append(idx.eids, e)
		}
	}
	ids.SortEIDs(idx.eids)
	for i, e := range idx.eids {
		idx.pos[e] = i
	}
	n := len(idx.eids)
	root := &Node{idx: idx, inc: bitset.New(n), vag: bitset.New(n), nInc: n, Scenario: scenario.NoID}
	for i := range idx.eids {
		root.inc.Add(i)
	}
	p := &Partition{
		idx:     idx,
		root:    root,
		home:    make([]*Node, n),
		numSets: 1,
		inRec:   make(map[scenario.ID]bool),
		sInc:    bitset.New(n),
		sVag:    bitset.New(n),
		sAny:    bitset.New(n),
		tInc:    bitset.New(n),
		tOut:    bitset.New(n),
		tVag:    bitset.New(n),
	}
	for i := range p.home {
		p.home[i] = root
	}
	if n > 1 {
		p.multi = 1
	}
	return p, nil
}

// NumSets returns the current number of sets (leaves) in the partition.
func (p *Partition) NumSets() int { return p.numSets }

// NumTargets returns the number of EIDs being distinguished.
func (p *Partition) NumTargets() int { return len(p.home) }

// Done reports whether every set holds at most one inclusive EID, i.e. all
// target EIDs are distinguished.
func (p *Partition) Done() bool { return p.multi == 0 }

// Recorded returns the IDs of the effective scenarios, in the order they
// were applied. The slice is shared; callers must not modify it.
func (p *Partition) Recorded() []scenario.ID { return p.recorded }

// Sets returns the inclusive membership of every current set, each sorted,
// ordered by their smallest EID. Vague copies are omitted.
func (p *Partition) Sets() [][]ids.EID {
	out := make([][]ids.EID, 0, p.numSets)
	p.root.eachLeaf(func(leaf *Node) { out = append(out, leaf.InclusiveEIDs()) })
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// eachLeaf calls fn for every leaf under n, left to right.
func (n *Node) eachLeaf(fn func(*Node)) {
	if n.isLeaf() {
		fn(n)
		return
	}
	n.Left.eachLeaf(fn)
	n.Right.eachLeaf(fn)
}

// SplitBy refines the partition with one E-Scenario, splitting every set it
// can effectively separate (Algorithm 1's SplitBy applied to all sets). A
// split is effective only when both sides keep at least one inclusive EID;
// scenarios that split nothing are skipped and not recorded (paper Remark).
// It returns whether the partition changed.
//
// A leaf can only split when one of its inclusive members is inclusive in
// the scenario, and an inclusive member's leaf is its home — so the home
// leaves of the scenario's own inclusive targets are the only leaves probed,
// each once. The cost is the scenario's size plus the leaves it touches,
// whatever the partition has grown to.
func (p *Partition) SplitBy(s *scenario.EScenario) bool {
	p.loadMasks(s)
	p.calls++
	changed := false
	p.sInc.ForEach(func(i int) {
		// A leaf split earlier in this call re-homes i to a child already
		// marked seen: children of one scenario cannot split by it again.
		if leaf := p.home[i]; leaf.seen != p.calls {
			leaf.seen = p.calls
			if p.split(leaf, s.ID) {
				changed = true
			}
		}
	})
	if changed {
		p.record(s.ID)
	}
	return changed
}

// loadMasks builds s's membership masks over the EID index; every leaf split
// is then pure word arithmetic. EIDs outside the partition are ignored, so
// callers hand over store scenarios unfiltered.
func (p *Partition) loadMasks(s *scenario.EScenario) {
	p.sInc.Clear()
	p.sVag.Clear()
	//evlint:ignore maprange fills membership bitmasks; the resulting sets are identical under any iteration order
	for e, attr := range s.EIDs {
		if i, ok := p.idx.pos[e]; ok {
			if attr == scenario.AttrInclusive {
				p.sInc.Add(i)
			} else {
				p.sVag.Add(i)
			}
		}
	}
	bitset.OrInto(p.sAny, p.sInc, p.sVag)
}

// split replaces leaf by its two children under the loaded masks when the
// split is effective, keeping home, the counters and the resolve hook in
// step, and reports whether it did.
func (p *Partition) split(leaf *Node, by scenario.ID) bool {
	left, right, ok := p.splitNode(leaf)
	if !ok {
		return false
	}
	leaf.Scenario = by
	leaf.Left, leaf.Right = left, right
	p.numSets++
	p.multi-- // leaf held ≥2 inclusive EIDs
	for _, child := range [2]*Node{left, right} {
		child.seen = p.calls
		child.inc.ForEach(func(i int) { p.home[i] = child })
		switch {
		case child.nInc > 1:
			p.multi++
		case p.onResolve != nil:
			// The parent held ≥2 inclusive EIDs, so a singleton child is
			// newly resolved.
			child.inc.ForEach(func(i int) { p.onResolve(p.idx.eids[i]) })
		}
	}
	return true
}

// record appends id to the effective scenarios unless it is already there.
func (p *Partition) record(id scenario.ID) {
	if !p.inRec[id] {
		p.inRec[id] = true
		p.recorded = append(p.recorded, id)
	}
}

// splitNode computes the left/right children of leaf under the prepared
// scenario masks, or ok=false when the split would not be effective.
//
// Per member e of the leaf, the rules of §IV-C2 map onto set algebra:
//   - inclusive and confirmed by the scenario → left, inclusive
//   - inclusive otherwise → right, inclusive; plus a vague copy on the left
//     when the scenario saw it vaguely
//   - vague, seen by the scenario (either way) → vague on both sides
//   - vague, unseen → vague on the right only
func (p *Partition) splitNode(leaf *Node) (left, right *Node, ok bool) {
	if leaf.nInc < 2 {
		return nil, nil, false
	}
	// Probe into reusable scratches first: most leaves are not split by most
	// scenarios (either side empty), and the probe must not allocate then.
	bitset.AndInto(p.tInc, leaf.inc, p.sInc)
	if !p.tInc.Any() {
		return nil, nil, false
	}
	bitset.AndNotInto(p.tOut, leaf.inc, p.sInc)
	if !p.tOut.Any() {
		return nil, nil, false
	}
	leftInc, rightInc := p.tInc.Clone(), p.tOut.Clone()
	bitset.AndInto(p.tVag, leaf.inc, p.sVag)
	bitset.AndInto(p.tOut, leaf.vag, p.sAny)
	bitset.OrInto(p.tVag, p.tVag, p.tOut)
	leftVag := p.tVag.Clone()
	// Every vague member stays vague on the right: unseen ones live only
	// there, seen ones are uncertain on both sides. Node sets are immutable
	// after creation, so the child can share the parent's word array.
	rightVag := leaf.vag
	nLeft := leftInc.Count()
	left = &Node{idx: p.idx, inc: leftInc, vag: leftVag, nInc: nLeft, Scenario: scenario.NoID}
	right = &Node{idx: p.idx, inc: rightInc, vag: rightVag, nInc: leaf.nInc - nLeft, Scenario: scenario.NoID}
	return left, right, true
}

// PositiveScenarios returns, for target EID e, the scenarios along its
// root-to-home path in which e was confirmed (left turns): the EID's
// coarse-grained distinguishing trajectory handed to the V stage.
func (p *Partition) PositiveScenarios(e ids.EID) ([]scenario.ID, error) {
	i, ok := p.idx.pos[e]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEID, e)
	}
	home := p.home[i]
	var out []scenario.ID
	n := p.root
	for n != home && !n.isLeaf() {
		if n.Left.inc.Has(i) {
			out = append(out, n.Scenario)
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return out, nil
}

// Targets returns the partition's EIDs, sorted and deduplicated: the order
// AllPositiveScenarios indexes by. The slice is shared.
func (p *Partition) Targets() []ids.EID { return p.idx.eids }

// AllPositiveScenarios returns PositiveScenarios(Targets()[i]) for every i
// from one walk of the split tree — one visit per node, where a descent per
// target re-walks the shared upper tree: the stack of left-turn scenarios at
// a leaf is the list of each of its inclusive members, who share one slice.
func (p *Partition) AllPositiveScenarios() [][]scenario.ID {
	out := make([][]scenario.ID, len(p.home))
	var stack []scenario.ID
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.isLeaf() {
			list := append([]scenario.ID(nil), stack...)
			n.inc.ForEach(func(i int) { out[i] = list })
			return
		}
		stack = append(stack, n.Scenario)
		walk(n.Left)
		stack = stack[:len(stack)-1]
		walk(n.Right)
	}
	walk(p.root)
	return out
}

// Resolved reports whether e's home set contains no other inclusive EID.
func (p *Partition) Resolved(e ids.EID) (bool, error) {
	i, ok := p.idx.pos[e]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownEID, e)
	}
	return p.home[i].nInc == 1, nil
}

// PostOrder returns the target EIDs in the matching order of Theorem 4.1:
// the post-order traversal of the split tree, so that when an EID is
// matched, every EID it could be confused with inside its positive-scenario
// intersection has already been matched and its VID can be ruled out.
// Within one leaf, EIDs are ordered lexicographically.
func (p *Partition) PostOrder() []ids.EID {
	out := make([]ids.EID, 0, len(p.home))
	p.root.eachLeaf(func(leaf *Node) {
		leaf.inc.ForEach(func(i int) { out = append(out, p.idx.eids[i]) })
	})
	return out
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
