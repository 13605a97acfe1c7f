// Package scenario defines EV-Scenarios (paper Definition 1): snapshots of
// the EID and VID sets appearing in one spatial cell during one time window.
// An EScenario holds the electronically observed identities with their
// inclusive/vague attribution; the corresponding VScenario holds the visual
// detections captured in the same cell and window.
package scenario

import (
	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

// ID uniquely identifies a scenario (an E-Scenario and its corresponding
// V-Scenario share the ID).
type ID int

// NoID marks an absent scenario reference.
const NoID ID = -1

// Attr is the zone attribute of an EID within an E-Scenario: inclusive EIDs
// were confidently inside the cell, vague EIDs were near the border (or
// appeared only intermittently) and may belong to a neighboring scenario.
type Attr uint8

// Attr values. The zero value is invalid so that a missing map entry is
// distinguishable from a real attribute.
const (
	AttrInclusive Attr = iota + 1
	AttrVague
)

// String implements fmt.Stringer.
func (a Attr) String() string {
	switch a {
	case AttrInclusive:
		return "inclusive"
	case AttrVague:
		return "vague"
	default:
		return "invalid"
	}
}

// EScenario is the electronic half of an EV-Scenario: the set of EIDs
// captured in one cell during one window, each with its zone attribute, as
// Store.E copies it out of the store's view.
type EScenario struct {
	ID     ID               `json:"id"`
	Cell   geo.CellID       `json:"cell"`
	Window int              `json:"window"`
	EIDs   map[ids.EID]Attr `json:"eids"`
}

// SortedEIDs returns the scenario's EIDs in ascending order.
func (s *EScenario) SortedEIDs() []ids.EID { return ids.SortedEIDKeys(s.EIDs) }

// Detection is one captured human figure in a V-Scenario. Matching code may
// read VID (the re-identification label, available under the paper's
// VID-consistency assumption) and Patch (raw pixels requiring feature
// extraction). TruePerson is ground truth reserved for evaluation.
type Detection struct {
	VID        ids.VID       `json:"vid"`
	Patch      feature.Patch `json:"patch"`
	TruePerson int           `json:"truePerson"`
}

// VScenario is the visual half of an EV-Scenario: the detections captured in
// the cell during the window.
type VScenario struct {
	ID         ID          `json:"id"`
	Cell       geo.CellID  `json:"cell"`
	Window     int         `json:"window"`
	Detections []Detection `json:"detections"`
}

// VIDs returns the distinct VID labels present, in sorted order.
func (s *VScenario) VIDs() []ids.VID {
	seen := make(map[ids.VID]bool, len(s.Detections))
	out := make([]ids.VID, 0, len(s.Detections))
	for _, d := range s.Detections {
		if !seen[d.VID] {
			seen[d.VID] = true
			out = append(out, d.VID)
		}
	}
	return ids.SortVIDs(out)
}

// HasVID reports whether any detection carries the given VID label.
func (s *VScenario) HasVID(v ids.VID) bool {
	for _, d := range s.Detections {
		if d.VID == v {
			return true
		}
	}
	return false
}
