// Package shardrpc runs stream shard windowers as separate worker
// processes over net/rpc — the multi-node leg of the sharded streaming
// ingest tier (DESIGN.md §15).
//
// The division of labor follows the shard seam (internal/stream): all
// global state — watermark, journal, the merge-stage engine, and with the
// journal every V pixel — stays in the front-end Router; a worker hosts
// nothing but a stream.ShardWindower, a pure function of its message
// sequence. The Supervisor implements stream.ShardRunner by proxying each
// shard incarnation's messages to its worker in journal order and feeding
// the emissions back to the merge stage. No pixel crosses the wire: a request
// carries observations without their patches, a reply names the observations
// a sealed closure holds by journal position. A worker death is reported to
// the router immediately (ShardRun.Died), which starts the replacement
// incarnation on a fresh windower and a replay of the journal exactly as it
// would for an in-process shard death; a message the worker refuses fails
// the stream instead. Because replay is deterministic and the merger
// deduplicates by round number, results are bit-identical to the in-process,
// unsharded, and batch paths — the invariance tests pin all four to one
// sha256.
package shardrpc

import (
	"fmt"

	"evmatching/internal/stream"
)

// ServiceName is the rpc service name workers register, mirroring
// cluster.RPCServiceName.
const ServiceName = "EVShard"

// ConfigureArgs resets a worker to host one shard incarnation on a fresh
// windower; whatever state the incarnation should have arrives as journal
// replay through Apply. Configure is also how a restarted-in-place worker
// process is reused for the replacement incarnation: no state survives a
// reconfigure.
type ConfigureArgs struct {
	Shard       int
	Incarnation int
	Params      stream.ShardParams
}

// ConfigureReply is empty; errors travel on the rpc error channel.
type ConfigureReply struct{}

// ApplyArgs applies a batch of journalled messages, in journal order, to
// the named shard incarnation. The identity pair guards against a stale
// supervisor talking to a reconfigured worker.
type ApplyArgs struct {
	Shard       int
	Incarnation int
	Msgs        []stream.ShardMsg
}

// ApplyReply carries the emissions the batch produced, in order.
type ApplyReply struct {
	Outs []stream.ShardOut
}

// PingArgs is a supervisor heartbeat probe.
type PingArgs struct {
	Seq int
}

// PingReply reports what the worker is hosting — the supervisor's liveness
// evidence: a failed Ping is a worker death.
type PingReply struct {
	Shard       int
	Incarnation int
	Steps       int64
}

// validateIdentity guards the (shard, incarnation) pair on hostile input.
func validateIdentity(shard, incarnation int) error {
	if shard < 0 {
		return fmt.Errorf("shardrpc: negative shard %d", shard)
	}
	if incarnation < 1 {
		return fmt.Errorf("shardrpc: incarnation %d out of range", incarnation)
	}
	return nil
}
