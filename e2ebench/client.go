package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// studyTimeout fails a study that has not finished after this long; no
// healthy study of any workload comes near it.
const studyTimeout = 2 * time.Minute

// httpClient is one closed-loop client: a single keep-alive connection
// to the daemon, used by one goroutine at a time.
type httpClient struct {
	base   string
	lane   int // client number; the Chrome-trace thread of its spans
	hc     *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
	calls  int // HTTP requests sent
	errors int // non-2xx responses and transport failures
}

func newHTTPClient(base string, lane int) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{base: base, lane: lane, tr: tr, hc: &http.Client{Transport: tr, Timeout: studyTimeout}}
}

// close releases the client's idle connection.
func (c *httpClient) close() { c.tr.CloseIdleConnections() }

// call sends one request and reads the whole response. The returned
// body aliases the client's buffer and is valid until the next call.
func (c *httpClient) call(method, path string, body []byte) (int, []byte, error) {
	c.calls++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.errors++
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		c.errors++
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.errors++
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// statusPayload is the part of a sweep or job payload the poll loop
// reads. Error is an envelope object on sweeps and a string on jobs, so
// it stays raw.
type statusPayload struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	CreatedAt  *time.Time      `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
	Error      json.RawMessage `json:"error"`
}

// served is the merged result of one request as the daemon served it.
type served struct {
	Render string          `json:"render"`
	Data   json.RawMessage `json:"data"`
}

// jobTiming is one job's server-side lifecycle, read off its final GET.
type jobTiming struct {
	Queued, Ran time.Duration
}

// outcome is what one study run produced.
type outcome struct {
	Index     int
	Lane      int
	Points    int
	Latency   time.Duration
	Calls     int
	ResultKB  float64  // bytes of the GETs that returned merged results
	Err       string   // empty when every request finished done
	IDs       []string // daemon sweep/job ids, by request
	Results   []served // merged results by request; kept for verified studies only
	Jobs      []jobTiming
	Trace     *span   // client spans (trace mode only)
	Daemon    []*span // daemon span trees grafted after the window, by request
	Requested []request
}

// runStudy submits every request of st, then polls them round-robin
// until all are terminal: the first poll round is immediate, later
// rounds wait max(1 ms, elapsed/20). Latency ends at the latest of
// (server finished_at + duration of the GET that returned the merged
// result), so the poll schedule does not quantize it. keep retains the
// merged results for verification; trace records client spans.
func (c *httpClient) runStudy(st study, keep, trace bool) (o outcome) {
	o = outcome{Index: st.Index, Lane: c.lane, Points: st.points(), Requested: st.Requests,
		IDs: make([]string, len(st.Requests))}
	if keep {
		o.Results = make([]served, len(st.Requests))
	}
	calls0 := c.calls
	start := time.Now()
	if trace {
		o.Trace = &span{Name: fmt.Sprintf("study/%d", st.Index), Start: start, pid: clientPID}
	}
	defer func() {
		o.Calls = c.calls - calls0
		if o.Trace != nil {
			o.Trace.End = time.Now()
		}
	}()
	ends := make([]time.Time, len(st.Requests))
	var pending []int
	for k, req := range st.Requests {
		t0 := time.Now()
		status, body, err := c.call(http.MethodPost, req.path(), req.body())
		o.Trace.add("post", t0, time.Now())
		if err != nil {
			o.Err = fmt.Sprintf("POST %s: %v", req.name(), err)
			return o
		}
		if status != http.StatusAccepted {
			o.Err = fmt.Sprintf("POST %s: status %d: %.200s", req.name(), status, body)
			return o
		}
		var p statusPayload
		if err := json.Unmarshal(body, &p); err != nil || p.ID == "" {
			o.Err = fmt.Sprintf("POST %s: undecodable response (%v): %.200s", req.name(), err, body)
			return o
		}
		o.IDs[k] = p.ID
		pending = append(pending, k)
	}
	for round := 0; len(pending) > 0; round++ {
		if round > 0 {
			time.Sleep(max(time.Millisecond, time.Since(start)/20))
		}
		if time.Since(start) > studyTimeout {
			o.Err = fmt.Sprintf("study %d unfinished after %v", st.Index, studyTimeout)
			return o
		}
		still := pending[:0]
		for _, k := range pending {
			req := st.Requests[k]
			t0 := time.Now()
			status, body, err := c.call(http.MethodGet, req.path()+"/"+o.IDs[k], nil)
			t1 := time.Now()
			if err != nil || status != http.StatusOK {
				o.Err = fmt.Sprintf("GET %s %s: status %d (%v): %.200s", req.name(), o.IDs[k], status, err, body)
				return o
			}
			var p statusPayload
			if err := json.Unmarshal(body, &p); err != nil {
				o.Err = fmt.Sprintf("GET %s %s: undecodable response: %v", req.name(), o.IDs[k], err)
				return o
			}
			switch p.State {
			case "queued", "running":
				o.Trace.add("poll", t0, t1)
				still = append(still, k)
				continue
			case "done":
			default:
				o.Err = fmt.Sprintf("%s %s ended %s: %s", req.name(), o.IDs[k], p.State, p.Error)
				return o
			}
			o.Trace.add("result_get", t0, t1)
			o.ResultKB += float64(len(body)) / 1024
			ends[k] = t1
			if p.FinishedAt != nil {
				ends[k] = p.FinishedAt.Add(t1.Sub(t0))
			}
			if req.Job != nil && p.CreatedAt != nil && p.StartedAt != nil && p.FinishedAt != nil {
				o.Jobs = append(o.Jobs, jobTiming{Queued: p.StartedAt.Sub(*p.CreatedAt), Ran: p.FinishedAt.Sub(*p.StartedAt)})
			}
			if keep {
				var rp struct {
					Result *served `json:"result"`
				}
				if err := json.Unmarshal(body, &rp); err != nil || rp.Result == nil {
					o.Err = fmt.Sprintf("GET %s %s: done without a result (%v)", req.name(), o.IDs[k], err)
					return o
				}
				o.Results[k] = *rp.Result
			}
		}
		pending = still
	}
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	o.Latency = last.Sub(start)
	return o
}
