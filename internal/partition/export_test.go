package partition

import (
	"fmt"

	"evmatching/internal/ids"
)

// Resolved reports whether target e's home set holds no other inclusive EID.
func (p *Partition) Resolved(e ids.EID) (bool, error) {
	i, ok := p.idx.pos[e]
	if !ok {
		return false, fmt.Errorf("partition: unknown EID %s", e)
	}
	return p.home(i).nInc == 1, nil
}

// VagueEIDs returns n's sorted vague members.
func (n *Node) VagueEIDs() []ids.EID {
	out := make([]ids.EID, 0, n.vag.Count())
	n.vag.ForEach(func(i int) { out = append(out, n.idx.eids[i]) })
	return out
}

// Retire takes the target with store ordinal ord out of the live set, as the
// split that resolves it would, without splitting anything; an ordinal that
// is no live target's is ignored. The tests of Prunes and Candidates resolve
// targets through it.
func (p *Partition) Retire(ord int32) {
	if i := p.PosOf(ord); i >= 0 && p.isLive(ord) {
		p.resolve(int(i))
	}
}
