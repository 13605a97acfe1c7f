package vfilter

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// MatchInOrder is the rule-out loop of Theorem 4.1 — match eids[i] over
// lists[i] for i = 0, 1, …, each acceptable VID ruled out for the targets
// after it — with the scoring spread over GOMAXPROCS goroutines. Results,
// their order and the final exclude are exactly those of
//
//	for i := range eids {
//		res, err := f.Match(eids[i], lists[i], exclude)
//		if err != nil { return err }
//		if res.VID != ids.NoVID && res.Acceptable { exclude.Add(res.VID) }
//		emit(i, res)
//	}
//
// at every worker count. emit is called once per target, in index order and
// never from two goroutines at once, as soon as that target is decided —
// but from whichever of the call's goroutines decided it, not necessarily
// the caller's; every call has returned before MatchInOrder does. On an
// error the targets before the failing one have been emitted, as the loop
// above would have. A nil exclude starts from nothing ruled out.
//
// The caller's goroutine and GOMAXPROCS-1 more each take the next target,
// copy exclude into a private Exclusion, and Score the target against the
// copy. Whoever finishes the target at the frontier — the lowest index not
// yet decided — Decides it against exclude itself, Adds, emits, and goes on
// through every following target whose score is already in. Deciding
// happens in index order and only deciding Adds, so the copy taken for
// target i holds only VIDs accepted by targets before i — a subset of what
// the serial loop would have ruled out by then, which is all Decide asks of
// a Scored — and it misses only the targets still being scored at that
// moment. With one worker (GOMAXPROCS 1, or a single target) that is
// nothing: the caller alone runs the loop above, and no goroutine starts.
//
// For the length of the call exclude belongs to it; see Exclusion.
func (f *Filter) MatchInOrder(ctx context.Context, eids []ids.EID, lists [][]scenario.ID, exclude *Exclusion, emit func(i int, res Result)) error {
	if len(eids) != len(lists) {
		return fmt.Errorf("vfilter: match in order: %d targets, %d lists", len(eids), len(lists))
	}
	if exclude == nil {
		exclude = f.NewExclusion()
	} else if exclude.f != f {
		return errors.New("vfilter: exclusion belongs to another filter")
	}

	type outcome struct {
		sc   *Scored
		err  error
		done bool
	}
	var (
		n  = len(eids)
		mu sync.Mutex // guards everything below, and exclude
		// Targets [0, frontier) are decided and emitted, [frontier, next)
		// are being scored or wait, scored, in outcomes.
		next, frontier int
		outcomes       = make([]outcome, n)
		deciding       bool  // a goroutine is at the frontier, deciding or out emitting
		failed         error // the error of the target at the frontier; ends the call
	)
	// decideNext decides the target at the frontier if its outcome is in,
	// and otherwise gives the frontier up. Called with mu held.
	decideNext := func() (i int, res Result, ok bool) {
		if failed != nil || ctx.Err() != nil || frontier == n || !outcomes[frontier].done {
			deciding = false
			return 0, Result{}, false
		}
		i, o := frontier, outcomes[frontier]
		outcomes[i] = outcome{}
		frontier++
		res, ord, err := Result{}, int32(-1), o.err
		if err == nil {
			res, ord, err = f.decide(o.sc, exclude)
		}
		if err != nil {
			failed, deciding = err, false
			return 0, Result{}, false
		}
		if res.VID != ids.NoVID && res.Acceptable {
			exclude.addOrd(ord)
		}
		return i, res, true
	}
	work := func() {
		private := f.NewExclusion()
		for {
			mu.Lock()
			if failed != nil || ctx.Err() != nil || next == n {
				mu.Unlock()
				return
			}
			i := next
			next++
			private.bits = append(private.bits[:0], exclude.bits...)
			mu.Unlock()

			sc, err := f.Score(eids[i], lists[i], private)

			// Whoever finds the frontier free takes it and decides, and
			// emits with mu released, until the next target's outcome is
			// not in yet. An outcome that lands meanwhile finds deciding
			// set; the goroutine at the frontier sees it on its next look,
			// which is under the same hold of mu that would clear deciding.
			mu.Lock()
			outcomes[i] = outcome{sc, err, true}
			mine := !deciding
			deciding = true
			mu.Unlock()
			for mine {
				mu.Lock()
				j, res, ok := decideNext()
				mu.Unlock()
				if !ok {
					break
				}
				emit(j, res)
			}
		}
	}

	var others sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		others.Add(1)
		go func() {
			defer others.Done()
			work()
		}()
	}
	work()
	others.Wait()
	if failed == nil && frontier < n {
		// Only a cancelled context stops the workers short of the end.
		failed = fmt.Errorf("vfilter: match in order: %w", ctx.Err())
	}
	return failed
}
