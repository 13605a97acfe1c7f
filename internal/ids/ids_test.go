package ids

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"testing"
)

func TestMACGeneratorFormat(t *testing.T) {
	g := NewMACGenerator(rand.New(rand.NewSource(1)))
	macRE := regexp.MustCompile(`^[0-9a-f]{2}(:[0-9a-f]{2}){5}$`)
	for i := 0; i < 100; i++ {
		e := g.Next()
		if !macRE.MatchString(string(e)) {
			t.Fatalf("EID %q is not a MAC address", e)
		}
		// Locally administered bit set, multicast bit clear.
		var first byte
		if _, err := fmtSscanfHex(string(e[:2]), &first); err != nil {
			t.Fatal(err)
		}
		if first&0x02 == 0 {
			t.Errorf("EID %q missing locally-administered bit", e)
		}
		if first&0x01 != 0 {
			t.Errorf("EID %q has multicast bit set", e)
		}
	}
}

// fmtSscanfHex parses a two-hex-digit string into b.
func fmtSscanfHex(s string, b *byte) (int, error) {
	var v int
	for _, c := range s {
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= int(c - '0')
		case c >= 'a' && c <= 'f':
			v |= int(c-'a') + 10
		}
	}
	*b = byte(v)
	return 1, nil
}

func TestMACGeneratorUnique(t *testing.T) {
	g := NewMACGenerator(rand.New(rand.NewSource(2)))
	seen := make(map[EID]bool, 5000)
	for i := 0; i < 5000; i++ {
		e := g.Next()
		if seen[e] {
			t.Fatalf("duplicate EID %q at draw %d", e, i)
		}
		seen[e] = true
	}
}

func TestMACGeneratorDeterministic(t *testing.T) {
	g1 := NewMACGenerator(rand.New(rand.NewSource(9)))
	g2 := NewMACGenerator(rand.New(rand.NewSource(9)))
	for i := 0; i < 100; i++ {
		if a, b := g1.Next(), g2.Next(); a != b {
			t.Fatalf("draw %d differs: %q vs %q", i, a, b)
		}
	}
}

// TestMACGeneratorMatchesSprintf holds Next to the fmt.Sprintf rendering
// of the same six draws, with the same retry on a repeat, over enough
// draws to see every byte value in every position.
func TestMACGeneratorMatchesSprintf(t *testing.T) {
	g := NewMACGenerator(rand.New(rand.NewSource(4)))
	rng := rand.New(rand.NewSource(4))
	seen := make(map[EID]bool)
	for i := 0; i < 5000; i++ {
		var want EID
		for {
			var b [6]byte
			for k := range b {
				b[k] = byte(rng.Intn(256))
			}
			b[0] = (b[0] | 0x02) &^ 0x01
			want = EID(fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", b[0], b[1], b[2], b[3], b[4], b[5]))
			if !seen[want] {
				seen[want] = true
				break
			}
		}
		if got := g.Next(); got != want {
			t.Fatalf("draw %d: Next = %q, Sprintf gives %q", i, got, want)
		}
	}
}

// TestVIDLabel holds VIDLabel to the fmt.Sprintf("V%05d") rendering it
// replaced — below, at and past the padding width, and for the negative
// indices no person has — at one allocation a label, the string.
func TestVIDLabel(t *testing.T) {
	for _, i := range []int{0, 9, 123, 99_999, 100_000, 1_234_567, -1, -12_345, math.MaxInt, math.MinInt} {
		if got, want := VIDLabel(i), VID(fmt.Sprintf("V%05d", i)); got != want {
			t.Errorf("VIDLabel(%d) = %q, Sprintf gives %q", i, got, want)
		}
	}
	if got := VIDLabel(123); got != "V00123" {
		t.Errorf("VIDLabel(123) = %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = VIDLabel(1_234_567) }); allocs != 1 {
		t.Errorf("VIDLabel allocates %v times a label, want 1", allocs)
	}
}

func TestSortEIDs(t *testing.T) {
	in := []EID{"cc", "aa", "bb"}
	out := SortEIDs(in)
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Errorf("SortEIDs result not sorted: %v", out)
	}
	if len(out) != 3 {
		t.Errorf("SortEIDs changed length: %v", out)
	}
}

func TestSortVIDs(t *testing.T) {
	in := []VID{"V3", "V1", "V2"}
	out := SortVIDs(in)
	want := []VID{"V1", "V2", "V3"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SortVIDs = %v, want %v", out, want)
		}
	}
}
