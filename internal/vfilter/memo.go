package vfilter

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// memoMinWork is the least rows×dim of a scenario whose MaxSim values are
// memoised. From it up a memo pays once about one pair in seven repeats;
// below it a kernel pair is so cheap that a memo needs one in four or more
// (BenchmarkMemoGate prices both sides, DESIGN.md §9). Score scores a
// smaller scenario afresh, and a Score whose scenarios are all smaller
// interns nothing.
const memoMinWork = 512

// repTable interns candidate representatives. A representative is the
// running mean of its VID's detection rows in the order Score adds them:
// every row of the VID in every listed scenario that sights it, list
// position by list position. It is therefore a function of its key alone —
// the VID's store ordinal followed by the scenario ID at each list position
// that sights it, a scenario listed twice appearing twice — and two Scores
// that build equal keys build the same vector bit for bit (a scenario's
// matrix is the same after a Drop and reload; see MatrixSource). Each
// distinct key gets a dense id, what the scenarios' memos are keyed by. Keys
// are compared word by word; the hash only picks where to look.
//
// The table holds every key it was ever given — one int32 per word, one
// offset and two index cells per key — so its size is that of the distinct
// representatives a Filter has scored: about 1 MB on the practical world.
type repTable struct {
	mu    sync.Mutex
	index []int32 // open addressing: id+1, 0 empty; len a power of two
	off   []int32 // id's key is words[off[id]:off[id+1]]
	words []int32
}

// intern writes to ids[i] the id of the key words[offs[i]:offs[i+1]],
// assigning the next id to a key it has not met.
func (t *repTable) intern(words, offs []int32, ids []int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off == nil {
		t.off = []int32{0}
	}
	for i := range ids {
		key := words[offs[i]:offs[i+1]]
		ids[i] = t.lookup(key, keyHash(key))
	}
}

// size returns how many representatives t holds and the bytes it keeps.
func (t *repTable) size() (reps, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.len(), 4 * (cap(t.index) + cap(t.off) + cap(t.words))
}

func (t *repTable) len() int { return max(len(t.off)-1, 0) }

func (t *repTable) key(id int32) []int32 { return t.words[t.off[id]:t.off[id+1]] }

func (t *repTable) lookup(key []int32, h uint64) int32 {
	if 2*(t.len()+1) > len(t.index) {
		t.grow()
	}
	mask := uint64(len(t.index) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		e := t.index[p]
		if e == 0 {
			id := int32(t.len())
			t.index[p] = id + 1
			t.words = append(t.words, key...)
			t.off = append(t.off, int32(len(t.words)))
			return id
		}
		if slices.Equal(t.key(e-1), key) {
			return e - 1
		}
	}
}

// grow doubles the index and places every key again, rehashing it.
func (t *repTable) grow() {
	t.index = make([]int32, max(64, 2*len(t.index)))
	mask := uint64(len(t.index) - 1)
	for id := range int32(t.len()) {
		p := keyHash(t.key(id)) & mask
		for t.index[p] != 0 {
			p = (p + 1) & mask
		}
		t.index[p] = id + 1
	}
}

// keyHash mixes a representative key's words (FNV-1a over whole words,
// then the splitmix64 finalizer so the low bits are usable as a position).
func keyHash(key []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range key {
		h ^= uint64(uint32(w))
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// simMemo maps representative ids to their MaxSim against one scenario's
// matrix — exact, since MaxSimBatch's value depends on the representative
// and the matrix only, never on the seed. Its cells are sorted by id, so
// Score reads it with one merge-walk per scenario in the id order of its
// slots, and merges the misses back in place: 12 bytes per memoised pair
// plus the slab's spare capacity, and no probe allocates.
type simMemo struct{ cells []memoCell }

// memoCell is one memoised pair, its similarity's bits split so the cell
// packs into three words.
type memoCell struct {
	id     int32
	lo, hi uint32
}

func (c memoCell) sim() float64 { return math.Float64frombits(uint64(c.hi)<<32 | uint64(c.lo)) }

// bytes is the memo's storage.
func (m *simMemo) bytes() int64 { return int64(12 * cap(m.cells)) }

// seek returns the position of the first cell at or after from whose id is
// not below id, and whether that cell is id's. It gallops — from, from+1,
// from+3, from+7, … — then bisects the last stride, so a walk over
// ascending ids pays the log of each gap, not of the memo.
func (m *simMemo) seek(from int, id int32) (int, bool) {
	hi, stride := from, 1
	for hi < len(m.cells) && m.cells[hi].id < id {
		from = hi + 1
		hi += stride
		stride *= 2
	}
	hi = min(hi+1, len(m.cells))
	j, ok := slices.BinarySearchFunc(m.cells[from:hi], id, func(c memoCell, id int32) int { return cmp.Compare(c.id, id) })
	return from + j, ok
}

// add merges the ids, ascending, with their similarities into the memo.
// held is how many cells the memo had when the caller found the ids
// missing: if it has more now, a Score that raced the caller's may have put
// some of them — with the same values — and those are skipped.
func (m *simMemo) add(ids []int32, sims []float64, held int) {
	fresh := len(ids)
	if len(m.cells) != held {
		for j, id := range ids {
			if _, ok := m.seek(0, id); ok {
				fresh--
				ids[j] = -1
			}
		}
	}
	if fresh == 0 {
		return
	}
	// Merge from the back, so the old cells move right at most once and
	// growing the slab is the only allocation.
	old := len(m.cells)
	m.cells = slices.Grow(m.cells, fresh)[:old+fresh]
	i, w := old-1, old+fresh-1
	for k := len(ids) - 1; k >= 0; k-- {
		if ids[k] < 0 {
			continue
		}
		for ; i >= 0 && m.cells[i].id > ids[k]; i, w = i-1, w-1 {
			m.cells[w] = m.cells[i]
		}
		bits := math.Float64bits(sims[k])
		m.cells[w] = memoCell{ids[k], uint32(bits), uint32(bits >> 32)}
		w--
	}
}
