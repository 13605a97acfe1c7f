package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/partition"
	"evmatching/internal/scenario"
	"evmatching/internal/vfilter"
)

// ErrUnknownWindow reports advancing a session past the dataset's windows.
var ErrUnknownWindow = errors.New("core: window has no scenarios")

// Session is the online form of EV-Matching: surveillance windows are fed in
// arrival order, EID set splitting refines incrementally after each one, and
// the current best matches can be requested at any time from the evidence
// accumulated so far. A deployed system would run one long-lived session per
// target group as data streams in, instead of re-running batch matching.
// Sessions are not safe for concurrent use.
type Session struct {
	m       *Matcher
	targets []ids.EID
	p       *partition.Partition
	filter  *vfilter.Filter
	seen    []int // windows consumed, in arrival order
}

// NewSession starts an online matching session for the target EIDs.
func (m *Matcher) NewSession(targets []ids.EID) (*Session, error) {
	targets = dedupEIDs(targets)
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	p, err := partition.New(targets)
	if err != nil {
		return nil, err
	}
	filter, err := vfilter.New(m.ds.Store, vfilter.Config{
		Extractor:      feature.Extractor{Dim: m.ds.Config.DescriptorDim(), WorkFactor: m.opts.WorkFactor},
		AcceptMajority: m.opts.AcceptMajority,
	})
	if err != nil {
		return nil, err
	}
	return &Session{
		m:       m,
		targets: targets,
		p:       p,
		filter:  filter,
	}, nil
}

// Advance consumes one window of scenarios, refining the partition. Windows
// may arrive in any order but each should be fed once; re-feeding a window
// is harmless (its scenarios are already-recorded splitters or ineffective).
func (s *Session) Advance(window int) error {
	idsAt := s.m.ds.Store.AtWindow(window)
	if len(idsAt) == 0 {
		return fmt.Errorf("%w: %d", ErrUnknownWindow, window)
	}
	for _, id := range idsAt {
		s.p.SplitBy(s.m.ds.Store.E(id))
	}
	s.seen = append(s.seen, window)
	return nil
}

// Windows returns how many windows the session has consumed.
func (s *Session) Windows() int { return len(s.seen) }

// Distinguished reports whether the E evidence so far separates every
// target (the session can keep running to strengthen V-stage evidence).
func (s *Session) Distinguished() bool { return s.p.Done() }

// Resolved returns how many targets are currently distinguished.
func (s *Session) Resolved() int {
	n := 0
	for _, e := range s.targets {
		if ok, err := s.p.Resolved(e); err == nil && ok {
			n++
		}
	}
	return n
}

// Match returns the current best match for every target, using only the
// windows consumed so far. Matches improve as more windows arrive; EIDs
// whose evidence is still ambiguous report low confidence or NoVID.
func (s *Session) Match(ctx context.Context) (map[ids.EID]vfilter.Result, error) {
	// Per-EID lists over the seen windows only.
	windows := append([]int(nil), s.seen...)
	sort.Ints(windows)
	lists := make(map[ids.EID][]scenario.ID, len(s.targets))
	for _, e := range s.targets {
		pos, err := s.p.PositiveScenarios(e)
		if err != nil {
			return nil, err
		}
		lists[e] = s.m.padToUnique(e, pos, windows)
	}
	order, ordered := inPostOrder(s.p, lists)
	out := make(map[ids.EID]vfilter.Result, len(order))
	err := s.filter.MatchInOrder(ctx, order, ordered, nil, func(i int, res vfilter.Result) {
		out[order[i]] = res
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
