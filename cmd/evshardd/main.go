// Command evshardd hosts one stream shard windower as a worker process for
// the shardrpc supervisor (DESIGN.md §15). It prints "listening <addr>" on
// stdout once bound, serves the EVShard rpc service, and exits when its
// stdin — held open by the supervisor — reaches EOF, so supervisor death
// never leaves orphans. A shardrpc.Supervisor spawns it (the benchmark's
// stream-remote workload does); it is not run by hand.
package main

import (
	"os"

	"evmatching/internal/shardrpc"
)

func main() {
	os.Exit(shardrpc.WorkerMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
