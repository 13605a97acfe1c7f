package partition

// Retire takes the target with store ordinal ord out of the live set, as the
// split that resolves it would, without splitting anything; an ordinal that
// is no live target's is ignored. The tests of Prunes and Candidates resolve
// targets through it.
func (p *Partition) Retire(ord int32) {
	if i := p.PosOf(ord); i >= 0 && p.isLive(ord) {
		p.resolve(int(i))
	}
}
