package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"evmatching/internal/mapreduce"
)

// Intermediate and final data move between coordinator and workers through
// JSON files in a shared directory — the stand-in for the distributed file
// system underneath the paper's MapReduce deployment. Files are written to a
// temporary name and renamed into place so that a crashed worker never
// leaves a partial file a reducer could read.

// inputFile names the input chunk of map task m for a job.
func inputFile(dir, jobID string, m int) string {
	return filepath.Join(dir, fmt.Sprintf("job-%s-input-%05d.json", jobID, m))
}

// intermediateFile names the shuffle file from map task m to reduce task r.
func intermediateFile(dir, jobID string, m, r int) string {
	return filepath.Join(dir, fmt.Sprintf("job-%s-mr-%05d-%05d.json", jobID, m, r))
}

// outputFile names the output of reduce task r.
func outputFile(dir, jobID string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("job-%s-out-%05d.json", jobID, r))
}

// writeKVFile atomically writes pairs to path. Each call stages through its
// own temp file, so speculative or redispatched attempts of one task may write
// the same path at once: the last rename wins and readers only ever see one
// attempt's complete pairs. (spill.WriteFileAtomic is not used: it stages
// through a fixed name too, and its fsyncs buy nothing for files a lost job
// regenerates.)
func writeKVFile(path string, kvs []mapreduce.KeyValue) error {
	data, err := json.Marshal(kvs)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s: %w", path, err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("cluster: write %s: %w", path, err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("cluster: write %s: %w", path, err)
	}
	return nil
}

// readKVFile reads pairs from path. A missing file reads as empty: a map
// task emits nothing for reduce partitions it had no keys for.
func readKVFile(path string) ([]mapreduce.KeyValue, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: read %s: %w", path, err)
	}
	var kvs []mapreduce.KeyValue
	if err := json.Unmarshal(data, &kvs); err != nil {
		return nil, fmt.Errorf("cluster: unmarshal %s: %w", path, err)
	}
	return kvs, nil
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
