// Package cluster is a distributed MapReduce runtime over net/rpc: a
// coordinator schedules map and reduce tasks, workers pull tasks via RPC and
// exchange intermediate data through a shared directory, and lease timeouts
// re-execute tasks lost to crashed or hung workers. It is the multi-machine
// counterpart of mapreduce.ParallelExecutor and the stand-in for the paper's
// 14-node Spark/Hadoop cluster.
package cluster

import (
	"fmt"
	"sync"

	"evmatching/internal/mapreduce"
)

// Registry resolves function names carried in job specs to map/reduce
// implementations. Workers cannot receive closures over RPC, so every
// function a job references must be registered under the same name on both
// the coordinator's submitter and every worker.
type Registry struct {
	mu      sync.RWMutex
	maps    map[string]mapreduce.MapFunc
	reduces map[string]mapreduce.ReduceFunc
}

// IdentityReduceName is pre-registered in every registry; it passes shuffled
// pairs through unchanged, turning a job with no reducer into a map+shuffle
// job (the same behaviour as a nil Reduce in package mapreduce).
const IdentityReduceName = "__identity"

// NewRegistry creates a registry with the identity reduce pre-registered.
func NewRegistry() *Registry {
	r := &Registry{
		maps:    make(map[string]mapreduce.MapFunc),
		reduces: make(map[string]mapreduce.ReduceFunc),
	}
	r.reduces[IdentityReduceName] = func(key string, values []string, emit mapreduce.Emitter) error {
		for _, v := range values {
			emit(mapreduce.KeyValue{Key: key, Value: v})
		}
		return nil
	}
	return r
}

// RegisterMap registers a map function under name.
func (r *Registry) RegisterMap(name string, fn mapreduce.MapFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("cluster: invalid map registration %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.maps[name]; dup {
		return fmt.Errorf("cluster: map %q already registered", name)
	}
	r.maps[name] = fn
	return nil
}

// RegisterReduce registers a reduce function under name.
func (r *Registry) RegisterReduce(name string, fn mapreduce.ReduceFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("cluster: invalid reduce registration %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.reduces[name]; dup {
		return fmt.Errorf("cluster: reduce %q already registered", name)
	}
	r.reduces[name] = fn
	return nil
}

// unregister forgets names, registered or not, as map and as reduce
// functions.
func (r *Registry) unregister(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		delete(r.maps, name)
		delete(r.reduces, name)
	}
}

// MapFunc resolves a registered map function.
func (r *Registry) MapFunc(name string) (mapreduce.MapFunc, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.maps[name]
	if !ok {
		return nil, fmt.Errorf("cluster: map %q not registered", name)
	}
	return fn, nil
}

// ReduceFunc resolves a registered reduce function.
func (r *Registry) ReduceFunc(name string) (mapreduce.ReduceFunc, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.reduces[name]
	if !ok {
		return nil, fmt.Errorf("cluster: reduce %q not registered", name)
	}
	return fn, nil
}
