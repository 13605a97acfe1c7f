// Package ids defines the electronic and visual identity types matched by
// EV-Matching. EIDs model device identities captured by network
// infrastructure (the paper assigns WiFi MAC addresses); VIDs label distinct
// visual appearances extracted from surveillance video.
package ids

import (
	"math/rand"
	"slices"
)

// EID is an electronic identity, e.g. a WiFi MAC address or IMSI. The empty
// EID means the person carries no electronic device (the missing-EID
// practical setting).
type EID string

// None is the absent EID for people who carry no device.
const None EID = ""

// VID is a visual identity label: one consistently re-identified appearance
// in the video data (the VID-consistency assumption, paper §III-B).
type VID string

// NoVID marks a failed or missing visual identification.
const NoVID VID = ""

// MACGenerator deterministically issues locally-administered unicast WiFi MAC
// addresses as EIDs.
type MACGenerator struct {
	rng  *rand.Rand
	seen map[EID]bool
}

// NewMACGenerator creates a generator drawing from rng.
func NewMACGenerator(rng *rand.Rand) *MACGenerator {
	return &MACGenerator{rng: rng, seen: make(map[EID]bool)}
}

// Next returns a fresh, unique EID.
func (g *MACGenerator) Next() EID {
	for {
		var b [6]byte
		for i := range b {
			b[i] = byte(g.rng.Intn(256))
		}
		b[0] = (b[0] | 0x02) &^ 0x01 // locally administered, unicast
		// b as %02x:%02x:…:%02x renders it, without fmt.
		s := [17]byte{2: ':', 5: ':', 8: ':', 11: ':', 14: ':'}
		for i, x := range b {
			s[3*i], s[3*i+1] = "0123456789abcdef"[x>>4], "0123456789abcdef"[x&0xf]
		}
		e := EID(s[:])
		if !g.seen[e] {
			g.seen[e] = true
			return e
		}
	}
}

// VIDLabel returns the canonical VID label for person index i, mimicking the
// identity labels a re-identification front end would assign.
func VIDLabel(i int) VID {
	// i as V%05d renders it, without fmt: the digits right to left, zeros
	// up to the width, the sign inside it.
	var s [21]byte // 'V', a sign, 19 digits
	n, width, u := len(s), 5, uint64(i)
	if i < 0 {
		width, u = 4, -u
	}
	for ; u > 0 || width > 0; u, width = u/10, width-1 {
		n--
		s[n] = '0' + byte(u%10)
	}
	if i < 0 {
		n--
		s[n] = '-'
	}
	n--
	s[n] = 'V'
	return VID(s[n:])
}

// SortEIDs sorts a slice of EIDs in place and returns it, for deterministic
// iteration over set contents.
func SortEIDs(eids []EID) []EID {
	slices.Sort(eids)
	return eids
}

// SortVIDs sorts a slice of VIDs in place and returns it.
func SortVIDs(vids []VID) []VID {
	slices.Sort(vids)
	return vids
}

// SortedEIDKeys returns the keys of an EID-keyed map in sorted order, the
// deterministic replacement for ranging over the map directly.
func SortedEIDKeys[V any](m map[EID]V) []EID {
	out := make([]EID, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	return SortEIDs(out)
}

// SortedVIDKeys returns the keys of a VID-keyed map in sorted order.
func SortedVIDKeys[V any](m map[VID]V) []VID {
	out := make([]VID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	return SortVIDs(out)
}
