package cluster

import (
	"fmt"
	"os"
	"path/filepath"
)

// Input chunks, shuffle buckets and reducer outputs move between coordinator
// and workers as record files (spill.WriteRun's format) in a shared
// directory — the stand-in for the distributed file system underneath the
// paper's MapReduce deployment. WriteRun renames each file into place from
// its own staging name, so a crashed worker never leaves a partial file a
// reducer could read and concurrent attempts of one task do not collide. A
// completed task has written every one of its files, empty buckets
// included: a file that is missing or cut short when it is read means loss,
// and fails the task.

// inputFile names the input chunk of map task m for a job.
func inputFile(dir, jobID string, m int) string {
	return filepath.Join(dir, fmt.Sprintf("job-%s-input-%05d", jobID, m))
}

// intermediateFile names the shuffle run from map task m to reduce task r.
func intermediateFile(dir, jobID string, m, r int) string {
	return filepath.Join(dir, fmt.Sprintf("job-%s-mr-%05d-%05d", jobID, m, r))
}

// outputFile names the output of reduce task r.
func outputFile(dir, jobID string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("job-%s-out-%05d", jobID, r))
}

// removeJobFiles deletes every file belonging to a job.
func removeJobFiles(dir, jobID string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "job-"+jobID+"-*"))
	if err != nil {
		return fmt.Errorf("cluster: glob job files: %w", err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("cluster: remove %s: %w", m, err)
		}
	}
	return nil
}
