package scenario

import "evmatching/internal/ids"

// DetectionOrdinals returns the VID ordinal of each of v's detections, v
// being scenario id's V side as the caller already fetched or paged it in.
// The first call for id interns the VIDs it has not met and records the
// list; every later call, from any filter over the store, reads the record,
// so a scenario's VID labels are hashed once per store. The slice is shared
// and must not be modified. Safe for concurrent use, not with Add.
func (st *Store) DetectionOrdinals(id ID, v *VScenario) []int32 {
	st.vidMu.Lock()
	defer st.vidMu.Unlock()
	if int(id) < len(st.detAt) && st.detAt[id] > 0 {
		return st.detOrds[st.detAt[id]-1]
	}
	if len(st.detAt) < st.Len() {
		st.detAt = append(st.detAt, make([]int32, st.Len()-len(st.detAt))...)
	}
	ords := make([]int32, len(v.Detections))
	for i := range v.Detections {
		ords[i] = st.vidLocked(v.Detections[i].VID)
	}
	st.detOrds = append(st.detOrds, ords)
	st.detAt[id] = int32(len(st.detOrds))
	return ords
}

// VIDOrdinal returns vid's ordinal, assigning the next one when vid has
// none — an exclusion may rule out a VID no scenario has shown yet, and the
// ordinal it gets then is the one the VID's first sighting will read.
func (st *Store) VIDOrdinal(vid ids.VID) int32 {
	st.vidMu.Lock()
	defer st.vidMu.Unlock()
	return st.vidLocked(vid)
}

func (st *Store) vidLocked(vid ids.VID) int32 {
	ord, ok := st.vidOrds[vid]
	if !ok {
		ord = int32(len(st.vidOrds))
		st.vidOrds[vid] = ord
		st.numVIDs.Store(int64(len(st.vidOrds)))
	}
	return ord
}

// NumVIDs returns how many VID ordinals the store has assigned: every
// ordinal DetectionOrdinals or VIDOrdinal has returned is below it. It
// takes no lock.
func (st *Store) NumVIDs() int { return int(st.numVIDs.Load()) }
