package cluster

// TaskKind discriminates the work a coordinator hands to a worker.
type TaskKind int

// Task kinds. TaskWait tells an idle worker to poll again shortly; TaskExit
// tells it to shut down.
const (
	TaskMap TaskKind = iota + 1
	TaskReduce
	TaskWait
	TaskExit
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	if k < TaskMap || k > TaskExit {
		return "invalid"
	}
	return [...]string{"map", "reduce", "wait", "exit"}[k-TaskMap]
}

// TaskRequest is a worker's RPC request for work.
type TaskRequest struct {
	WorkerID string
}

// TaskReply describes the assigned task.
type TaskReply struct {
	Kind        TaskKind
	JobID       string
	TaskID      int
	MapName     string
	ReduceName  string
	CombineName string
	NumMapTasks int
	NumReducers int
}

// TaskReport is a worker's RPC report of a finished task.
type TaskReport struct {
	WorkerID string
	JobID    string
	Kind     TaskKind
	TaskID   int
	// Err carries a worker-side execution failure; empty means success.
	Err string
	// Counters carries per-task statistics to aggregate job-wide.
	Counters map[string]int64
}

// count adds delta to the report's named counter.
func (r *TaskReport) count(name string, delta int64) { r.Counters[name] += delta }

// TaskAck is the (empty) response to a report.
type TaskAck struct{}
