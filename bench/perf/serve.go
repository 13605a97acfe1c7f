package perf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/stream"
)

// serveWorkload drives a real evserve: one producer POSTs the log as
// 200-line JSONL bodies back to back on one connection while one reader
// holds GET /stream open. Each round is one session against a freshly
// started server, because a served engine cannot be reset.
type serveWorkload struct {
	short bool

	genS, flattenS, startS float64
	ds                     *dataset.Dataset
	obs                    []stream.Observation
	bodies                 [][]byte
	dataPath               string
	srv                    *evserveProc
	want                   map[ids.EID]ids.VID // the in-process reference's resolutions
	got                    *sessionStats
}

// sessionSeconds is about how long one closed-loop session over the served
// world takes; it sizes the session count from the requested run length.
const sessionSeconds = 3.5

// rounds is the session count: at least three, more for longer runs.
func (s *serveWorkload) rounds(seconds float64) int { return max(3, int(seconds/sessionSeconds+0.5)) }
func (s *serveWorkload) singleOp() bool             { return true }

func (s *serveWorkload) setup(e *env, round int) error {
	seed := roundSeed(e.opts.Seed, round)
	var err error
	if err = s.build(e, serveConfig(seed, s.short), seed); err != nil {
		return err
	}
	s.srv, s.startS, err = startServer(e, s.dataPath)
	return err
}

// build generates the world, its sentinel-terminated log and the POST
// bodies, and saves the dataset file evserve loads.
func (s *serveWorkload) build(e *env, cfg dataset.Config, seed int64) error {
	end := e.tr.Span("dataset", "Generate")
	start := time.Now()
	ds, err := dataset.Generate(cfg)
	s.genS = time.Since(start).Seconds()
	end()
	if err != nil {
		return err
	}
	end = e.tr.Span("stream", "EventsFromDataset")
	start = time.Now()
	_, obs, err := stream.EventsFromDataset(ds, windowMS, seed)
	s.flattenS = time.Since(start).Seconds()
	end()
	if err != nil {
		return err
	}
	s.ds, s.obs = ds, WithSentinel(obs)
	end = e.tr.Span("bench", "encode POST bodies")
	s.bodies, err = PostBodies(s.obs)
	end()
	if err != nil {
		return err
	}
	s.dataPath = filepath.Join(e.tmp, fmt.Sprintf("world-%d.gob", seed))
	end = e.tr.Span("dataset", "SaveFile")
	err = ds.SaveFile(s.dataPath)
	end()
	return err
}

// warm computes the reference outside every timer: the same log through an
// in-process Engine configured as evserve configures its own.
func (s *serveWorkload) warm(e *env) error {
	want, err := referenceResolutions(streamConfig(s.ds), s.obs)
	s.want = want
	return err
}

// referenceResolutions replays the log through an in-process Engine without
// flushing, as a served engine sees it, and returns EID → resolved VID.
func referenceResolutions(scfg stream.Config, obs []stream.Observation) (map[ids.EID]ids.VID, error) {
	eng, err := replayEngine(nil, scfg, obs, false)
	if err != nil {
		return nil, err
	}
	want := make(map[ids.EID]ids.VID)
	for _, r := range eng.Resolutions() {
		want[r.EID] = r.VID
	}
	return want, nil
}

func (s *serveWorkload) op(e *env) (opSample, error) {
	st, err := runSession(e, s.srv.base, s.bodies, s.obs, len(s.want), 0)
	if err != nil {
		return opSample{}, err
	}
	s.got = st
	return opSample{seconds: st.wallS, items: float64(len(s.obs)), latMS: st.resolveMS}, nil
}

// verify checks the session's acknowledgements and that the resolutions the
// server streamed are exactly the in-process reference's.
func (s *serveWorkload) verify(_ *env, rr *roundResult) error {
	st := s.got
	rr.attempted += len(s.bodies) // every POST is an operation
	rr.failed += st.non200
	if st.non200 > 0 {
		rr.notes = append(rr.notes, fmt.Sprintf("FAILED: %d POSTs did not return 200", st.non200))
	}
	rr.check(st.accepted == len(s.obs) && st.dropped == 0,
		"server accepted %d and dropped %d of %d observations", st.accepted, st.dropped, len(s.obs))
	rr.check(len(st.resolved) == len(s.want), "server streamed %d resolutions, reference has %d", len(st.resolved), len(s.want))
	diff := 0
	for eid, vid := range s.want {
		if got, ok := st.resolved[eid]; !ok || got != vid {
			diff++
		}
	}
	rr.check(diff == 0, "%d resolutions differ from the in-process reference", diff)
	// Streamed resolutions are provisional; the answer a user of the served
	// system reads is GET /match, so that is what accuracy scores.
	answers, bad, err := queryMatches(s.srv.base, s.ds.AllEIDs())
	if err != nil {
		return err
	}
	rr.check(bad == 0, "%d GET /match requests answered neither 200 nor 404", bad)
	right := 0
	for _, eid := range s.ds.AllEIDs() {
		if want := s.ds.TruthVID(eid); want != ids.NoVID {
			rr.scored++
			if answers[eid] == want {
				right++
			}
		}
	}
	rr.accuracy = float64(right) / float64(max(rr.scored, 1))
	rr.notes = append(rr.notes, fmt.Sprintf("session: %d POSTs, %d resolutions, ack p50 %.2f ms", len(s.bodies), len(st.resolved), Median(st.ackMS)))
	return nil
}

func (s *serveWorkload) teardown(*env) {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	if s.dataPath != "" {
		os.Remove(s.dataPath)
	}
	s.ds, s.obs, s.bodies, s.want, s.got = nil, nil, nil, nil, nil
}

func (s *serveWorkload) layers(*env) (*probeInput, error) {
	return &probeInput{
		ds: s.ds, targets: s.ds.AllEIDs(), genS: s.genS,
		logDS: s.ds, obs: s.obs[:len(s.obs)-1], scfg: streamConfig(s.ds), flattenS: s.flattenS,
		served: &servedInput{dataPath: s.dataPath, obs: s.obs, bodies: s.bodies, want: s.want, startS: s.startS},
	}, nil
}

// sessionStats is what one ingest session measured.
type sessionStats struct {
	wallS     float64   // first POST sent → last POST acknowledged
	ackMS     []float64 // per POST: send (or due time) → response read
	closeMS   []float64 // ackMS of the POSTs that carried a window-closing observation
	resolveMS []float64 // per resolution: closing POST sent (or due) → SSE frame read
	lateMS    []float64 // open loop: how late the generator sent each POST it was free to send
	backlog   int       // open loop: most POSTs due but not yet sent
	resolved  map[ids.EID]ids.VID
	accepted  int
	dropped   int
	non200    int
}

// sseResolution is the part of a streamed resolution frame the benchmark reads.
type sseResolution struct {
	EID    ids.EID `json:"eid"`
	VID    ids.VID `json:"vid"`
	Window int     `json:"window"`
}

// runSession POSTs bodies to the server at base on one keep-alive
// connection while one reader consumes GET /stream, and returns once want
// resolutions have arrived. interval 0 is a closed loop: the next POST goes
// out when the previous one is acknowledged. A positive interval is an open
// loop: POST i is due at start+i·interval whatever the server does, and
// every latency is timed from the due time.
func runSession(e *env, base string, bodies [][]byte, obs []stream.Observation, want int, interval time.Duration) (*sessionStats, error) {
	closedBy, _ := ClosingIndex(obs)
	closing := make(map[int]bool) // POST index → carries a window-closing observation
	for _, idx := range closedBy {
		closing[idx/postLines] = true
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type arrival struct {
		res sseResolution
		at  time.Time
	}
	var (
		mu       sync.Mutex
		arrivals []arrival
		all      = make(chan struct{})
		readErr  = make(chan error, 1)
	)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream", nil)
	if err != nil {
		return nil, err
	}
	streamClient := &http.Client{Transport: &http.Transport{}}
	defer streamClient.CloseIdleConnections()
	resp, err := streamClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /stream: status %d", resp.StatusCode)
	}
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			at := time.Now()
			var r sseResolution
			if err := json.Unmarshal([]byte(data), &r); err != nil {
				readErr <- fmt.Errorf("SSE frame: %w", err)
				return
			}
			e.tr.spanOn(laneReader, "server", "SSE resolution")()
			mu.Lock()
			arrivals = append(arrivals, arrival{r, at})
			n := len(arrivals)
			mu.Unlock()
			if n == want {
				close(all)
			}
		}
	}()
	// The reader must be gone before the session returns, whatever happens.
	defer readerDone.Wait()
	defer cancel()

	st := &sessionStats{resolved: make(map[ids.EID]ids.VID)}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	sent := make([]time.Time, len(bodies)) // what latencies are timed from
	start := time.Now()
	free := start // when the generator could have sent the next POST
	var lastAck time.Time
	for i, body := range bodies {
		from := time.Now()
		if interval > 0 {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			now := time.Now()
			ready := due
			if free.After(ready) {
				ready = free
			}
			st.lateMS = append(st.lateMS, now.Sub(ready).Seconds()*1e3)
			if behind := int(now.Sub(start)/interval) - i; behind > st.backlog {
				st.backlog = behind
			}
			from = due
		}
		sent[i] = from
		end := e.tr.Span("server", "POST /ingest")
		ack, err := postIngest(client, base, body)
		end()
		if err != nil {
			return nil, fmt.Errorf("POST %d: %w", i, err)
		}
		lastAck = time.Now()
		free = lastAck
		if !ack.ok {
			st.non200++
		}
		st.accepted += ack.Accepted
		st.dropped += ack.Dropped
		ms := lastAck.Sub(from).Seconds() * 1e3
		st.ackMS = append(st.ackMS, ms)
		if closing[i] {
			st.closeMS = append(st.closeMS, ms)
		}
	}
	st.wallS = lastAck.Sub(start).Seconds()

	if want > 0 {
		select {
		case <-all:
		case err := <-readErr:
			return nil, err
		case <-time.After(30 * time.Second):
			mu.Lock()
			n := len(arrivals)
			mu.Unlock()
			return nil, fmt.Errorf("only %d of %d resolutions arrived within 30s of the last POST", n, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range arrivals {
		st.resolved[a.res.EID] = a.res.VID
		idx, ok := closedBy[a.res.Window]
		if !ok {
			return nil, fmt.Errorf("resolution for %s names window %d, which no observation of the log closes", a.res.EID, a.res.Window)
		}
		st.resolveMS = append(st.resolveMS, a.at.Sub(sent[idx/postLines]).Seconds()*1e3)
	}
	return st, nil
}

// queryMatches asks GET /match for every EID on one connection. An EID the
// server's index holds no match for answers 404 and stays out of the map;
// bad counts any other non-200 answer.
func queryMatches(base string, eids []ids.EID) (answers map[ids.EID]ids.VID, bad int, err error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	answers = make(map[ids.EID]ids.VID, len(eids))
	for _, eid := range eids {
		resp, err := client.Get(base + "/match?eid=" + url.QueryEscape(string(eid)))
		if err != nil {
			return nil, 0, fmt.Errorf("GET /match: %w", err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("GET /match: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var body struct {
				VID ids.VID `json:"vid"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				return nil, 0, fmt.Errorf("GET /match: %w", err)
			}
			answers[eid] = body.VID
		case http.StatusNotFound:
		default:
			bad++
		}
	}
	return answers, bad, nil
}

// ingestAck is a POST /ingest response.
type ingestAck struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	ok       bool
}

func postIngest(client *http.Client, base string, body []byte) (ingestAck, error) {
	resp, err := client.Post(base+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return ingestAck{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ingestAck{}, err
	}
	ack := ingestAck{ok: resp.StatusCode == http.StatusOK}
	if ack.ok {
		if err := json.Unmarshal(data, &ack); err != nil {
			return ingestAck{}, errors.New("malformed /ingest response: " + string(data))
		}
	}
	return ack, nil
}
