package cluster

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
)

// pollInterval is the worker's sleep between requests when told to wait.
const pollInterval = 20 * time.Millisecond

// WorkerConfig parameterizes a worker process.
type WorkerConfig struct {
	// ID labels the worker in its reports and fault draws.
	ID string
	// Dir is the shared data directory (must match the coordinator's).
	Dir string
	// Registry resolves the function names in task assignments.
	Registry *Registry
	// Faults, when non-nil, injects per-task misbehaviour (see FaultPlan);
	// package chaos provides the seeded implementation.
	Faults FaultPlan
}

// Worker pulls tasks from a coordinator and executes them.
type Worker struct {
	cfg    WorkerConfig
	client *rpc.Client
	fsys   spill.FS // the shared directory's filesystem; tests swap in a fake
}

// NewWorker connects a worker to the coordinator at addr.
func NewWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	if cfg.Dir == "" || cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: worker needs Dir and Registry")
	}
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("worker-%d", time.Now().UnixNano())
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial coordinator %s: %w", addr, err)
	}
	client := rpc.NewClientWithCodec(protocol.ClientCodec(conn, nil))
	return &Worker{cfg: cfg, client: client, fsys: spill.OS{}}, nil
}

// Run processes tasks until the coordinator says exit, the context is done,
// a call fails, or an injected crash point is reached (in which case it
// returns nil, simulating a silent machine loss). Every return closes the
// connection, which is how the coordinator learns the worker has stopped.
func (w *Worker) Run(ctx context.Context) error {
	defer w.client.Close()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var reply TaskReply
		if err := w.client.Call(RPCServiceName+".RequestTask", &TaskRequest{WorkerID: w.cfg.ID}, &reply); err != nil {
			return fmt.Errorf("cluster: worker %s request: %w", w.cfg.ID, err)
		}
		switch reply.Kind {
		case TaskExit:
			return nil
		case TaskWait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(pollInterval):
			}
			continue
		case TaskMap, TaskReduce:
			var fault TaskFault
			if w.cfg.Faults != nil {
				fault = w.cfg.Faults.TaskFault(w.cfg.ID, reply.JobID, reply.Kind, reply.TaskID)
			}
			if fault.CrashBeforeExecute {
				return nil // claimed but never worked: the closed connection requeues it
			}
			report := w.execute(&reply)
			if fault.CrashBeforeReport {
				return nil // output files written; re-execution is idempotent
			}
			if fault.StallBeforeReport > 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(fault.StallBeforeReport):
				}
			}
			deliveries := 1
			if fault.DuplicateReport {
				deliveries = 2
			}
			for i := 0; i < deliveries; i++ {
				var ack TaskAck
				if err := w.client.Call(RPCServiceName+".ReportTask", report, &ack); err != nil {
					return fmt.Errorf("cluster: worker %s report: %w", w.cfg.ID, err)
				}
			}
		default:
			return fmt.Errorf("cluster: worker %s: unknown task kind %v", w.cfg.ID, reply.Kind)
		}
	}
}

// execute runs one task and builds its report; execution errors travel back
// in the report rather than crashing the worker.
func (w *Worker) execute(t *TaskReply) *TaskReport {
	report := &TaskReport{
		WorkerID: w.cfg.ID,
		JobID:    t.JobID,
		Kind:     t.Kind,
		TaskID:   t.TaskID,
		Counters: make(map[string]int64),
	}
	var err error
	switch t.Kind {
	case TaskMap:
		err = w.runMap(t, report)
	case TaskReduce:
		err = w.runReduce(t, report)
	}
	if err != nil {
		report.Err = err.Error()
	}
	return report
}

// runMap executes map task t.TaskID: the map kernel over the task's input
// chunk, every bucket held to the end of the task and then written — empty
// ones included — as the sorted run its reducer will merge.
func (w *Worker) runMap(t *TaskReply, report *TaskReport) error {
	task := mapreduce.MapTask{NumReducers: t.NumReducers, Count: report.count}
	var err error
	if task.Map, err = w.cfg.Registry.MapFunc(t.MapName); err != nil {
		return err
	}
	if t.CombineName != "" {
		if task.Combine, err = w.cfg.Registry.ReduceFunc(t.CombineName); err != nil {
			return err
		}
	}
	input, err := spill.ReadRun(w.fsys, inputFile(w.cfg.Dir, t.JobID, t.TaskID))
	if err != nil {
		return err
	}
	// Not the worker's context: a task cut short by shutdown would report an
	// error, and an error report fails the job where a lost worker does not.
	buckets, err := task.Run(context.Background(), input, 0)
	if err != nil {
		return err
	}
	for r, run := range buckets {
		if _, err := spill.WriteRun(w.fsys, intermediateFile(w.cfg.Dir, t.JobID, t.TaskID, r), run); err != nil {
			return err
		}
	}
	return nil
}

// runReduce executes reduce task t.TaskID: the reduce kernel streaming a
// merge of this partition's run from every map task, then the output file.
func (w *Worker) runReduce(t *TaskReply, report *TaskReport) error {
	reduceFn, err := w.cfg.Registry.ReduceFunc(t.ReduceName)
	if err != nil {
		return err
	}
	runs := make([]string, t.NumMapTasks)
	for m := range runs {
		runs[m] = intermediateFile(w.cfg.Dir, t.JobID, m, t.TaskID)
	}
	out, err := mapreduce.ReducePartition(w.fsys, nil, runs, reduceFn, report.count)
	if err != nil {
		return err
	}
	_, err = spill.WriteRun(w.fsys, outputFile(w.cfg.Dir, t.JobID, t.TaskID), out)
	return err
}
