package cluster

import (
	"sort"

	"evmatching/internal/wire"
)

// protocol is the coordinator/worker protocol in internal/wire's rpc frame,
// the one the shard tier speaks too (DESIGN.md §16). Its version is 1; both
// ends check it on every frame, so a worker from another build — a gob-era
// one included — fails its first call instead of exchanging undecodable
// bytes.
var protocol = &wire.Protocol{Name: "cluster", Service: RPCServiceName, Client: "worker", Server: "coordinator",
	Version: 1, Methods: []string{RPCServiceName + ".RequestTask", RPCServiceName + ".ReportTask"},
	Append: appendTask, Read: readTask}

// appendTask appends a task message; the empty TaskAck appends nothing. A
// report's counters go in name order, so equal reports are equal bytes.
func appendTask(b []byte, body any) ([]byte, bool) {
	switch v := body.(type) {
	case *TaskAck:
	case *TaskRequest:
		b = wire.AppendString(b, v.WorkerID)
	case *TaskReply:
		b = wire.AppendVarint(b, int64(v.Kind))
		b = wire.AppendString(b, v.JobID)
		b = wire.AppendVarint(b, int64(v.TaskID))
		b = wire.AppendString(b, v.MapName)
		b = wire.AppendString(b, v.ReduceName)
		b = wire.AppendString(b, v.CombineName)
		b = wire.AppendVarint(b, int64(v.NumMapTasks))
		b = wire.AppendVarint(b, int64(v.NumReducers))
	case *TaskReport:
		b = wire.AppendString(b, v.WorkerID)
		b = wire.AppendString(b, v.JobID)
		b = wire.AppendVarint(b, int64(v.Kind))
		b = wire.AppendVarint(b, int64(v.TaskID))
		b = wire.AppendString(b, v.Err)
		names := make([]string, 0, len(v.Counters))
		for name := range v.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		b = wire.AppendUvarint(b, uint64(len(names)))
		for _, name := range names {
			b = wire.AppendVarint(wire.AppendString(b, name), v.Counters[name])
		}
	default:
		return b, false
	}
	return b, true
}

// readTask decodes a message appendTask wrote; a report's counters must come
// in strictly ascending name order.
func readTask(r *wire.Reader, body any) bool {
	switch v := body.(type) {
	case *TaskAck:
	case *TaskRequest:
		v.WorkerID = r.String()
	case *TaskReply:
		v.Kind = TaskKind(r.Int())
		v.JobID = r.String()
		v.TaskID = r.Int()
		v.MapName = r.String()
		v.ReduceName = r.String()
		v.CombineName = r.String()
		v.NumMapTasks = r.Int()
		v.NumReducers = r.Int()
	case *TaskReport:
		v.WorkerID = r.String()
		v.JobID = r.String()
		v.Kind = TaskKind(r.Int())
		v.TaskID = r.Int()
		v.Err = r.String()
		n := r.Count(2) // a counter is at least an empty name and a value byte
		v.Counters = make(map[string]int64, n)
		for i, prev := 0, ""; i < n && r.Err() == nil; i++ {
			name := r.String()
			if i > 0 && name <= prev {
				r.Fail("report counters not in ascending name order")
			}
			v.Counters[name], prev = r.Varint(), name
		}
	default:
		return false
	}
	return true
}
