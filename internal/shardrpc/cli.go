package shardrpc

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// ResolveWorkerBinary locates the evshardd worker binary for a supervisor
// Command: the explicit path when given, else an evshardd sitting next to
// the current executable (the common install layout), else $PATH.
func ResolveWorkerBinary(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("shardrpc: worker binary %s: %w", explicit, err)
		}
		return explicit, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "evshardd")
		if info, err := os.Stat(cand); err == nil && !info.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("evshardd"); err == nil {
		return p, nil
	}
	return "", errors.New("shardrpc: evshardd binary not found: pass its path, or install it next to this binary or on PATH")
}

// ParseKillSpec compiles a scripted chaos schedule — comma-separated
// "shard@step" entries — into a KillPlan for a run of shards workers: each
// entry SIGKILLs the named shard's worker when its first incarnation reaches
// that message step. Replacement incarnations run unharmed, so a drill always
// terminates; the run must still finish with the same fingerprint as an
// undisturbed one. An entry with trailing text, or naming a shard the run
// does not have, is refused: its kill could never fire. An empty spec
// returns a nil plan.
func ParseKillSpec(spec string, shards int) (func(shard, incarnation int, step int64) bool, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	type kill struct {
		shard int
		step  int64
	}
	var kills []kill
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		shardText, stepText, ok := strings.Cut(ent, "@")
		shard, errShard := strconv.Atoi(shardText)
		step, errStep := strconv.ParseInt(stepText, 10, 64)
		if !ok || errShard != nil || errStep != nil {
			return nil, fmt.Errorf("shardrpc: bad kill entry %q (want shard@step)", ent)
		}
		if shard < 0 || shard >= shards || step < 1 {
			return nil, fmt.Errorf("shardrpc: kill entry %q out of range (%d shards, steps from 1)", ent, shards)
		}
		kills = append(kills, kill{shard, step})
	}
	return func(shard, incarnation int, step int64) bool {
		if incarnation != 1 {
			return false
		}
		for _, k := range kills {
			if k.shard == shard && k.step == step {
				return true
			}
		}
		return false
	}, nil
}
