package partition

import (
	"fmt"

	"evmatching/internal/ids"
)

// Resolved reports whether target e's home set holds no other EID.
func (p *Partition) Resolved(e ids.EID) (bool, error) {
	i, ok := p.pos[e]
	if !ok {
		return false, fmt.Errorf("partition: unknown EID %s", e)
	}
	return p.home(i).size() == 1, nil
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
