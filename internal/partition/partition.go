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
// membership masks, instead of per-EID map traffic. A scenario reaches the
// masks either as a store view (SplitView: its EID ordinals, mapped to index
// positions through the ranked bitset BindStore builds) or as an EID map
// (SplitBy); both then run the one split routine.
//
// A partition bound to a store also knows which scenarios can still split it
// (DESIGN.md §13): only one holding a live target — one whose home leaf has
// another inclusive member — inclusively. It keeps the live targets as a
// bitset of store ordinals that splits shrink, and both front-ends read it:
// the batch split stage a window at a time (Candidates), the stream one
// sealed scenario at a time (Prunes).
package partition

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
	// set[i] is the slot in leaves of idx.eids[i]'s inclusive home leaf.
	// Every leaf is the home of at least one EID (both children of an
	// effective split keep an inclusive member), so leaves holds exactly the
	// leaves. A split hands its leaf's slot to the child with more inclusive
	// members and relabels only the other child's: a member changes slot only
	// when it lands in the smaller half, whose size is at most half the one it
	// left, so at most log₂ n times — O(n log n) relabels over any split
	// sequence (Hopcroft's "process the smaller half" rule), where re-homing
	// both children costs O(n²) when scenarios peel targets off one by one.
	set    []int32
	leaves []*Node
	// relabels counts the set entries splits have rewritten (tests only).
	relabels int
	// numSets counts the leaves; multi counts those still holding ≥2
	// inclusive EIDs. Both are maintained per split, so NumSets and Done
	// never walk anything.
	numSets, multi int
	// calls numbers the SplitBy invocations for Node.seen.
	calls    uint64
	recorded []scenario.ID
	inRec    map[scenario.ID]bool
	// sInc/sVag/sAny are the reusable scenario-membership masks each split
	// call rebuilds; tInc/tOut/tVag are splitNode's probe scratches, cloned
	// into child nodes only when a split is actually effective.
	sInc, sVag, sAny bitset.Set
	tInc, tOut, tVag bitset.Set
	// The targets' store ordinals (BindStore), ranked: bit o of bound is
	// set for a target's ordinal o, below[w] counts the set bits of the
	// words before w, and byRank[r] is the index position of the target with
	// the r-th smallest ordinal. A store's ordinals span all its EIDs, most
	// of them no target's, so this costs a word per 64 of them, not an
	// entry each; ordinals past bound's end are outside the partition.
	bound  bitset.Set
	below  []int32
	byRank []int32
	// store is the store BindStore bound, ords[i] the ordinal of Targets()[i]
	// in it. live holds the ordinals of the targets whose home leaf has ≥2
	// inclusive members, numLive how many there are: a split clears the bit
	// of each target it resolves. Leaves only ever shrink, so the set does.
	store   *scenario.Store
	ords    []int32
	live    bitset.Set
	numLive int
	// onResolve, when set, is called with each EID's position in Targets the
	// moment its inclusive home leaf shrinks to a singleton. Leaves only ever
	// shrink, so a resolved EID is resolved forever and the callback fires
	// exactly once per EID.
	onResolve func(int)
}

// OnResolve registers fn to be called with the position in Targets of each
// target EID as it becomes resolved (its home leaf's inclusive count reaches
// 1). Pass nil to unregister. EIDs already resolved at registration time are
// not replayed.
func (p *Partition) OnResolve(fn func(i int)) { p.onResolve = fn }

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
		set:     make([]int32, n),
		leaves:  append(make([]*Node, 0, n), root), // a leaf per target at most
		numSets: 1,
		inRec:   make(map[scenario.ID]bool),
		sInc:    bitset.New(n),
		sVag:    bitset.New(n),
		sAny:    bitset.New(n),
		tInc:    bitset.New(n),
		tOut:    bitset.New(n),
		tVag:    bitset.New(n),
	}
	if n > 1 {
		p.multi = 1
	}
	return p, nil
}

// NumSets returns the current number of sets (leaves) in the partition.
func (p *Partition) NumSets() int { return p.numSets }

// home returns the inclusive home leaf of the target at position i.
func (p *Partition) home(i int) *Node { return p.leaves[p.set[i]] }

// NumTargets returns the number of EIDs being distinguished.
func (p *Partition) NumTargets() int { return len(p.set) }

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

// BindStore resolves every target's EID ordinal in st, so SplitView can
// read st's views and Prunes and Candidates can tell which of them can still
// split, and returns them, ords[i] being that of Targets()[i]; a store
// ordinal no target has maps to nothing.
func (p *Partition) BindStore(st *scenario.Store) (ords []int32) {
	ords = make([]int32, len(p.idx.eids))
	n := int32(0)
	for i, e := range p.idx.eids {
		ords[i] = st.Ordinal(e)
		n = max(n, ords[i]+1)
	}
	p.store, p.ords = st, ords
	p.bound = bitset.New(int(n))
	p.live = bitset.New(int(n))
	p.numLive = 0
	for i, o := range ords {
		p.bound.Add(int(o))
		if p.home(i).nInc > 1 {
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
	p.clearMasks()
	for k, o := range v.Ords {
		if i := p.PosOf(o); i >= 0 {
			p.mark(i, v.Attrs[k])
		}
	}
	return p.splitMarked(id)
}

// SplitBy refines the partition with one E-Scenario, splitting every set it
// can effectively separate (Algorithm 1's SplitBy applied to all sets). A
// split is effective only when both sides keep at least one inclusive EID;
// scenarios that split nothing are skipped and not recorded (paper Remark).
// It returns whether the partition changed. EIDs outside the partition are
// ignored, so callers hand over store scenarios unfiltered.
func (p *Partition) SplitBy(s *scenario.EScenario) bool {
	p.clearMasks()
	//evlint:ignore maprange fills membership bitmasks; the resulting sets are identical under any iteration order
	for e, attr := range s.EIDs {
		if i, ok := p.idx.pos[e]; ok {
			p.mark(int32(i), attr)
		}
	}
	return p.splitMarked(s.ID)
}

// clearMasks empties the membership masks for the next scenario.
func (p *Partition) clearMasks() {
	p.sInc.Clear()
	p.sVag.Clear()
}

// mark records that the scenario being loaded holds position i with attr.
func (p *Partition) mark(i int32, attr scenario.Attr) {
	if attr == scenario.AttrInclusive {
		p.sInc.Add(int(i))
	} else {
		p.sVag.Add(int(i))
	}
}

// splitMarked is the one split routine, over the scenario whose membership
// is marked in the masks: every leaf split is pure word arithmetic.
//
// A leaf can only split when one of its inclusive members is inclusive in
// the scenario, and an inclusive member's leaf is its home — so the home
// leaves of the scenario's own inclusive targets are the only leaves probed,
// each once. The cost is the scenario's size plus the leaves it touches,
// whatever the partition has grown to.
func (p *Partition) splitMarked(id scenario.ID) bool {
	bitset.OrInto(p.sAny, p.sInc, p.sVag)
	p.calls++
	changed := false
	p.sInc.ForEach(func(i int) {
		// A leaf split earlier in this call re-homes i to a child already
		// marked seen: children of one scenario cannot split by it again.
		if leaf := p.home(i); leaf.seen != p.calls {
			leaf.seen = p.calls
			if p.split(leaf, id) {
				changed = true
			}
		}
	})
	if changed {
		p.record(id)
	}
	return changed
}

// split replaces leaf by its two children under the loaded masks when the
// split is effective, keeping set, leaves, the counters and the resolve hook
// in step, and reports whether it did. The larger child (by inclusive
// members; the left on a tie) takes over leaf's slot, so only the smaller
// child's members are relabelled.
func (p *Partition) split(leaf *Node, by scenario.ID) bool {
	left, right, ok := p.splitNode(leaf)
	if !ok {
		return false
	}
	leaf.Scenario = by
	leaf.Left, leaf.Right = left, right
	p.numSets++
	p.multi-- // leaf held ≥2 inclusive EIDs
	big, small := left, right
	if small.nInc > big.nInc {
		big, small = small, big
	}
	big.slot = leaf.slot
	p.leaves[big.slot] = big
	small.slot = int32(len(p.leaves))
	p.leaves = append(p.leaves, small)
	small.inc.ForEach(func(i int) { p.set[i] = small.slot })
	p.relabels += small.nInc
	for _, child := range [2]*Node{left, right} {
		child.seen = p.calls
		switch {
		case child.nInc > 1:
			p.multi++
		default:
			// The parent held ≥2 inclusive EIDs, so a singleton child is
			// newly resolved.
			child.inc.ForEach(p.resolve)
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
// home leaf holds another inclusive member. It is 0 before BindStore.
func (p *Partition) NumLive() int { return p.numLive }

// Prunes reports whether the scenario read as store view v provably cannot
// change the partition: no live target appears in it inclusively. A split's
// effectiveness test requires an inclusive member of a leaf with ≥2
// inclusive EIDs, every such member is live, and leaf membership is a subset
// of the targets — so a true result is an exact no-op, skippable without
// recording. With nothing live every scenario prunes.
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
	home := p.home(i)
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
	out := make([][]scenario.ID, len(p.set))
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
	return p.home(i).nInc == 1, nil
}

// PostOrder returns the targets, as positions in Targets, in the matching
// order of Theorem 4.1: the post-order traversal of the split tree, so that
// when an EID is matched, every EID it could be confused with inside its
// positive-scenario intersection has already been matched and its VID can be
// ruled out. Within one leaf, EIDs are ordered lexicographically.
func (p *Partition) PostOrder() []int {
	out := make([]int, 0, len(p.set))
	p.root.eachLeaf(func(leaf *Node) {
		leaf.inc.ForEach(func(i int) { out = append(out, i) })
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
	// A singleton leaf is the home of exactly one target.
	for _, leaf := range p.leaves {
		if leaf.nInc == 1 {
			st.Resolved++
		}
	}
	return st
}
