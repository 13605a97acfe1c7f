// Package partition implements EID set splitting, the E stage of EV-Matching
// (paper §IV-B1, Algorithm 1). A Partition tracks the sets of mutually
// undistinguishable EIDs as a binary split tree: each effective E-Scenario
// splits a leaf into the EIDs appearing in the scenario (left child) and the
// rest (right child). When every leaf holds a single EID, the scenarios
// recorded along each EID's root-to-leaf path form its distinguishing list
// for the V stage.
//
// The practical setting (§IV-C2, Theorem 4.3) is supported through vague
// attributes: an EID that is vague — near a cell border, or only
// intermittently observed — is never used to confirm a split. A split reads
// a scenario's inclusive members only, so a vague sighting leaves its EID on
// the right (not-confirmed) side, and every EID has exactly one home leaf.
//
// The tree is a refinable partition: every target's position in the sorted
// target list is held once in one member array, and a node is a range of
// it, its left child the front of the range and its right child the rest.
// A split swaps the scenario's members to the front of their home leaves'
// ranges and cuts each touched leaf there, so it costs the scenario's size
// plus the smaller child of each split, whatever the partition has grown to.
// A scenario reaches the split either as a store view (SplitView: its EID
// ordinals, mapped to target positions through the ranked bitset BindStore
// builds) or as an EID map (SplitBy); both then run the one split routine.
//
// A partition bound to a store also knows which scenarios can still split it
// (DESIGN.md §13): only one holding a live target — one whose home leaf has
// another member — inclusively. It keeps the live targets as a bitset of
// store ordinals that splits shrink, and both front-ends read it: the batch
// split stage a window at a time (Candidates), the stream one sealed
// scenario at a time (Prunes).
package partition

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"evmatching/internal/bitset"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// ErrNoTargets reports an attempt to build a partition with no EIDs.
var ErrNoTargets = errors.New("partition: no target EIDs")

// Node is one set of mutually undistinguishable EIDs in the split tree: the
// target positions in elems[lo:hi] of its partition. Leaves hold live sets;
// internal nodes remember the scenario that split them. A node's range, and
// so its member set, is fixed once the node is created; a split reorders
// members only inside the range of the leaf it cuts.
type Node struct {
	lo, hi int32
	// marked counts the members the split in progress has swapped to the
	// front of the range; it is 0 between splits.
	marked int32
	// slot is the leaf's index in Partition.leaves; an internal node keeps
	// the slot it had as a leaf, which its larger child now holds.
	slot int32
	// Scenario is the E-Scenario that split this node (internal nodes only).
	Scenario scenario.ID
	// Left holds the EIDs confirmed by Scenario; Right holds the rest.
	Left  *Node
	Right *Node
}

// isLeaf reports whether n has not been split.
func (n *Node) isLeaf() bool { return n.Left == nil && n.Right == nil }

// size returns the number of n's members.
func (n *Node) size() int32 { return n.hi - n.lo }

// Partition is the evolving partition of the target EIDs, with the split
// tree that produced it. It is not safe for concurrent use.
type Partition struct {
	// eids is the sorted, deduplicated target list; pos inverts it.
	eids []ids.EID
	pos  map[ids.EID]int
	// elems holds every target position once, each node's members in its
	// range; at[i] is position i's index in elems.
	elems, at []int32
	root      *Node
	// set[i] is the slot in leaves of target i's home leaf. Every leaf holds
	// at least one target (both children of an effective split do), so
	// leaves holds exactly the leaves. A split hands its leaf's slot to the
	// larger child and relabels only the other child's members: a member
	// changes slot only when it lands in the smaller half, whose size is at
	// most half the one it left, so at most log₂ n times — O(n log n)
	// relabels over any split sequence (Hopcroft's "process the smaller
	// half" rule), where re-homing both children costs O(n²) when scenarios
	// peel targets off one by one.
	set    []int32
	leaves []*Node
	// relabels counts the set entries splits have rewritten (tests only).
	relabels int
	// numSets counts the leaves; multi counts those still holding ≥2
	// EIDs. Both are maintained per split, so NumSets and Done never walk
	// anything.
	numSets, multi int
	recorded       []scenario.ID
	// marks and touched are split scratches: the scenario's inclusive
	// target positions, and the leaves they fell in.
	marks   []int32
	touched []*Node
	// The targets' store ordinals (BindStore), ranked: bit o of bound is
	// set for a target's ordinal o, below[w] counts the set bits of the
	// words before w, and byRank[r] is the position of the target with the
	// r-th smallest ordinal. A store's ordinals span all its EIDs, most of
	// them no target's, so this costs a word per 64 of them, not an entry
	// each; ordinals past bound's end are outside the partition.
	bound  bitset.Set
	below  []int32
	byRank []int32
	// store is the store BindStore bound, ords[i] the ordinal of Targets()[i]
	// in it. live holds the ordinals of the targets whose home leaf has ≥2
	// members, numLive how many there are: a split clears the bit of each
	// target it resolves. Leaves only ever shrink, so the set does.
	store   *scenario.Store
	ords    []int32
	live    bitset.Set
	numLive int
	// onResolve, when set, is called with each EID's position in Targets the
	// moment its home leaf shrinks to a singleton. Leaves only ever shrink,
	// so a resolved EID is resolved forever and the callback fires exactly
	// once per EID.
	onResolve func(int)
}

// OnResolve registers fn to be called with the position in Targets of each
// target EID as it becomes resolved (its home leaf's member count reaches
// 1). Pass nil to unregister. EIDs already resolved at registration time are
// not replayed.
func (p *Partition) OnResolve(fn func(i int)) { p.onResolve = fn }

// New creates the initial one-set partition over the target EIDs
// (paper: "Initially, all EIDs are in one set").
func New(targets []ids.EID) (*Partition, error) {
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	p := &Partition{pos: make(map[ids.EID]int, len(targets))}
	for _, e := range targets {
		if e == ids.None {
			return nil, fmt.Errorf("partition: target list contains the empty EID")
		}
		if _, dup := p.pos[e]; !dup {
			p.pos[e] = 0 // position assigned after sorting
			p.eids = append(p.eids, e)
		}
	}
	ids.SortEIDs(p.eids)
	n := len(p.eids)
	p.elems, p.at = make([]int32, n), make([]int32, n)
	for i, e := range p.eids {
		p.pos[e] = i
		p.elems[i], p.at[i] = int32(i), int32(i)
	}
	p.root = &Node{hi: int32(n), Scenario: scenario.NoID}
	p.set = make([]int32, n)
	p.leaves = append(make([]*Node, 0, n), p.root) // a leaf per target at most
	p.numSets = 1
	if n > 1 {
		p.multi = 1
	}
	return p, nil
}

// NumSets returns the current number of sets (leaves) in the partition.
func (p *Partition) NumSets() int { return p.numSets }

// home returns the home leaf of the target at position i.
func (p *Partition) home(i int) *Node { return p.leaves[p.set[i]] }

// members returns n's EIDs, sorted.
func (p *Partition) members(n *Node) []ids.EID {
	out := make([]ids.EID, 0, n.size())
	for _, i := range p.elems[n.lo:n.hi] {
		out = append(out, p.eids[i])
	}
	slices.Sort(out)
	return out
}

// NumTargets returns the number of EIDs being distinguished.
func (p *Partition) NumTargets() int { return len(p.set) }

// Done reports whether every set holds at most one EID, i.e. all target
// EIDs are distinguished.
func (p *Partition) Done() bool { return p.multi == 0 }

// Recorded returns the IDs of the effective scenarios, in the order they
// were applied. The slice is shared; callers must not modify it.
func (p *Partition) Recorded() []scenario.ID { return p.recorded }

// Sets returns the membership of every current set, each sorted, ordered by
// their smallest EID.
func (p *Partition) Sets() [][]ids.EID {
	out := make([][]ids.EID, 0, p.numSets)
	for _, leaf := range p.leaves {
		out = append(out, p.members(leaf))
	}
	slices.SortFunc(out, func(a, b []ids.EID) int { return cmp.Compare(a[0], b[0]) })
	return out
}

// BindStore resolves every target's EID ordinal in st, so SplitView can
// read st's views and Prunes and Candidates can tell which of them can still
// split, and returns them, ords[i] being that of Targets()[i]; a store
// ordinal no target has maps to nothing.
func (p *Partition) BindStore(st *scenario.Store) (ords []int32) {
	ords = make([]int32, len(p.eids))
	n := int32(0)
	for i, e := range p.eids {
		ords[i] = st.Ordinal(e)
		n = max(n, ords[i]+1)
	}
	p.store, p.ords = st, ords
	p.bound = bitset.New(int(n))
	p.live = bitset.New(int(n))
	p.numLive = 0
	for i, o := range ords {
		p.bound.Add(int(o))
		if p.home(i).size() > 1 {
			p.live.Add(int(o))
			p.numLive++
		}
	}
	p.below = make([]int32, len(p.bound))
	ranked := int32(0)
	for w, word := range p.bound {
		p.below[w] = ranked
		ranked += int32(bits.OnesCount64(word))
	}
	p.byRank = make([]int32, ranked)
	for i, o := range ords {
		p.byRank[p.rank(o)] = int32(i)
	}
	return ords
}

// rank counts the bound ordinals below ord, a bound ordinal itself.
func (p *Partition) rank(ord int32) int32 {
	return p.below[ord>>6] + int32(bits.OnesCount64(p.bound[ord>>6]&(1<<(uint(ord)&63)-1)))
}

// PosOf returns the position in Targets of the target BindStore bound to
// store ordinal ord, or -1 when no target has it.
func (p *Partition) PosOf(ord int32) int32 {
	if ord < 0 || int(ord) >= len(p.bound)*64 || !p.bound.Has(int(ord)) {
		return -1
	}
	return p.byRank[p.rank(ord)]
}

// SplitView is SplitBy for scenario id read as its store view: each ordinal
// goes through the table BindStore built, so no EID is hashed.
func (p *Partition) SplitView(id scenario.ID, v scenario.EView) bool {
	p.marks = p.marks[:0]
	for k, o := range v.Ords {
		if v.Attrs[k] == scenario.AttrInclusive {
			if i := p.PosOf(o); i >= 0 {
				p.marks = append(p.marks, i)
			}
		}
	}
	return p.splitMarked(id)
}

// SplitBy refines the partition with one E-Scenario, splitting every set it
// can effectively separate (Algorithm 1's SplitBy applied to all sets). A
// split is effective only when both sides keep at least one EID; scenarios
// that split nothing are skipped and not recorded (paper Remark). It returns
// whether the partition changed. EIDs outside the partition, and vague
// sightings, are ignored, so callers hand over store scenarios unfiltered.
func (p *Partition) SplitBy(s *scenario.EScenario) bool {
	p.marks = p.marks[:0]
	//evlint:ignore maprange collects target positions that splitMarked sorts before use
	for e, attr := range s.EIDs {
		if i, ok := p.pos[e]; ok && attr == scenario.AttrInclusive {
			p.marks = append(p.marks, int32(i))
		}
	}
	return p.splitMarked(s.ID)
}

// splitMarked is the one split routine, over the scenario whose inclusive
// target positions are in marks, each once (a map's keys, a view's distinct
// ordinals).
//
// A leaf can only split when one of its members is in the scenario, so the
// home leaves of the marked targets are the only leaves touched. Each marked
// member is swapped to the front of its leaf's range, and a touched leaf
// whose members were not all marked splits at the end of its marked front.
// The marks are sorted first, so leaves split, and OnResolve fires, in the
// order of their smallest marked member.
//
// Once a scenario has been applied, every leaf of ≥2 members lies wholly
// inside or wholly outside its inclusive set, and leaves only shrink: it can
// never split anything again, so it is never recorded twice.
func (p *Partition) splitMarked(id scenario.ID) bool {
	slices.Sort(p.marks)
	touched := p.touched[:0]
	for _, i := range p.marks {
		leaf := p.home(int(i))
		if leaf.marked == 0 {
			touched = append(touched, leaf)
		}
		front := leaf.lo + leaf.marked
		j := p.elems[front]
		p.elems[front], p.elems[p.at[i]] = i, j
		p.at[j], p.at[i] = p.at[i], front
		leaf.marked++
	}
	changed := false
	for _, leaf := range touched {
		if p.split(leaf, id) {
			changed = true
		}
	}
	p.touched = touched[:0]
	if changed {
		p.recorded = append(p.recorded, id)
	}
	return changed
}

// split cuts leaf after its marked front, which holds at least one member,
// and resets the mark count. When members are left unmarked it hangs the
// two children under leaf, keeping set, leaves, the counters and the
// resolve hook in step, and reports true. The larger child (the left on a
// tie) takes over leaf's slot, so only the smaller child's members are
// relabelled.
func (p *Partition) split(leaf *Node, by scenario.ID) bool {
	mid := leaf.lo + leaf.marked
	leaf.marked = 0
	if mid == leaf.hi {
		return false
	}
	left := &Node{lo: leaf.lo, hi: mid, Scenario: scenario.NoID}
	right := &Node{lo: mid, hi: leaf.hi, Scenario: scenario.NoID}
	leaf.Scenario = by
	leaf.Left, leaf.Right = left, right
	p.numSets++
	p.multi-- // leaf held ≥2 EIDs
	big, small := left, right
	if small.size() > big.size() {
		big, small = small, big
	}
	big.slot = leaf.slot
	p.leaves[big.slot] = big
	small.slot = int32(len(p.leaves))
	p.leaves = append(p.leaves, small)
	for _, i := range p.elems[small.lo:small.hi] {
		p.set[i] = small.slot
	}
	p.relabels += int(small.size())
	for _, child := range [2]*Node{left, right} {
		if child.size() > 1 {
			p.multi++
		} else {
			// The parent held ≥2 EIDs, so a singleton child is newly
			// resolved.
			p.resolve(int(p.elems[child.lo]))
		}
	}
	return true
}

// resolve retires the newly resolved target at position i from the live
// set and hands it to the resolve hook. A live set is non-empty only once
// BindStore has run, and every target it held then sat in a leaf of ≥2, so
// a target resolving now is in it.
func (p *Partition) resolve(i int) {
	if p.numLive > 0 {
		p.live.Remove(int(p.ords[i]))
		p.numLive--
	}
	if p.onResolve != nil {
		p.onResolve(i)
	}
}

// isLive reports whether store ordinal ord is a live target's.
func (p *Partition) isLive(ord int32) bool {
	return int(ord) < len(p.live)*64 && p.live.Has(int(ord))
}

// NumLive returns how many targets are still undistinguished: those whose
// home leaf holds another member. It is 0 before BindStore.
func (p *Partition) NumLive() int { return p.numLive }

// Prunes reports whether the scenario read as store view v provably cannot
// change the partition: no live target appears in it inclusively. A split's
// effectiveness test requires an inclusive member of a leaf with ≥2 EIDs,
// every such member is live, and leaf membership is a subset of the targets
// — so a true result is an exact no-op, skippable without recording. With
// nothing live every scenario prunes.
func (p *Partition) Prunes(v scenario.EView) bool {
	if p.numLive == 0 {
		return true
	}
	for k, o := range v.Ords {
		if v.Attrs[k] == scenario.AttrInclusive && p.isLive(o) {
			return false
		}
	}
	return true
}

// Candidates appends to buf the scenarios of the bound store's window w that
// hold a live target inclusively — the only scenarios that can split the
// partition — in AtWindow order, and returns the grown buffer;
// len(AtWindow(w)) − len(appended) is the pruned count. It is the
// window-at-a-time form of Prunes, read off store ordinals on both sides, and
// it walks the smaller side: the live targets' postings in a sparse world,
// the window's few scenarios, through Prunes, in a crowded one.
func (p *Partition) Candidates(w int, buf []scenario.ID) []scenario.ID {
	if p.numLive == 0 {
		return buf
	}
	st := p.store
	if order := st.AtWindow(w); len(order) <= p.numLive {
		for _, id := range order {
			if !p.Prunes(st.View(id)) {
				buf = append(buf, id)
			}
		}
		return buf
	}
	// Collect the live targets' scenarios in buf's tail and dedup them
	// there in ID order, which is AtWindow order unless the window's Adds
	// came out of cell order.
	wp := st.Postings(w)
	base := len(buf)
	p.live.ForEach(func(o int) { buf = append(buf, wp.Held(int32(o))...) })
	cands := buf[base:]
	slices.Sort(cands)
	cands = slices.Compact(cands)
	byCell := func(a, b scenario.ID) int { return cmp.Compare(st.Cell(a), st.Cell(b)) }
	if !slices.IsSortedFunc(cands, byCell) {
		slices.SortStableFunc(cands, byCell)
	}
	return buf[:base+len(cands)]
}

// PositiveScenarios returns, for the target at position i in Targets, the
// scenarios along its root-to-home path in which it was confirmed (left
// turns): the EID's coarse-grained distinguishing trajectory handed to the
// V stage.
func (p *Partition) PositiveScenarios(i int) []scenario.ID {
	var out []scenario.ID
	for n := p.root; !n.isLeaf(); {
		if p.at[i] < n.Left.hi {
			out = append(out, n.Scenario)
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return out
}

// Targets returns the partition's EIDs, sorted and deduplicated: the order
// AllPositiveScenarios indexes by. The slice is shared.
func (p *Partition) Targets() []ids.EID { return p.eids }

// AllPositiveScenarios returns PositiveScenarios(i) for every i
// from one walk of the split tree — one visit per node, where a descent per
// target re-walks the shared upper tree: the stack of left-turn scenarios at
// a leaf is the list of each of its members, who share one slice.
func (p *Partition) AllPositiveScenarios() [][]scenario.ID {
	out := make([][]scenario.ID, len(p.set))
	var stack []scenario.ID
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.isLeaf() {
			list := append([]scenario.ID(nil), stack...)
			for _, i := range p.elems[n.lo:n.hi] {
				out[i] = list
			}
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

// PostOrder returns the targets, as positions in Targets, in the matching
// order of Theorem 4.1: the post-order traversal of the split tree, so that
// when an EID is matched, every EID it could be confused with inside its
// positive-scenario intersection has already been matched and its VID can be
// ruled out. Within one leaf, EIDs are ordered lexicographically. The
// leaves' ranges tile the member array in tree order, so it is that array
// with each leaf's range sorted.
func (p *Partition) PostOrder() []int {
	out := make([]int, len(p.elems))
	for k, i := range p.elems {
		out[k] = int(i)
	}
	for _, leaf := range p.leaves {
		slices.Sort(out[leaf.lo:leaf.hi])
	}
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
		Targets:  len(p.set),
		Leaves:   p.numSets,
		Recorded: len(p.recorded),
		BoundNm1: len(p.set) - 1,
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
	for _, leaf := range p.leaves {
		if leaf.size() == 1 {
			st.Resolved++
		}
	}
	return st
}
