// Package spill is the out-of-core tier for EV-Matching (DESIGN.md §14).
//
// It provides four narrow layers that the shuffle and window subsystems
// compose, rather than one monolithic "disk cache":
//
//   - budget accounting: Budget tracks bytes of state held in memory against
//     a configured ceiling and answers the single question "are we over?".
//   - run writing: WriteRun persists one slice of key/value records as a
//     length-prefixed run file — scratch state of a live job, staged through
//     a unique temp name and renamed, never fsynced. WriteFileAtomic is the
//     durable sequence, for checkpoints.
//   - merging: MergeRuns k-way merges sorted record sources (run files plus
//     an in-memory tail) back into one globally sorted stream, preserving
//     exact (key, value) order so spilled output is byte-identical to the
//     in-memory sort.
//   - eviction policy: FIFO orders sealed-window scenario payloads for
//     eviction; BlobLog stores the evicted payloads in an unlinked
//     append-only temp file and serves random-access reloads.
//
// Every layer is deterministic: nothing here reads the wall clock or
// iterates a map, and all failure paths return wrapped errors so callers
// degrade loudly instead of producing a silently different fingerprint.
package spill
