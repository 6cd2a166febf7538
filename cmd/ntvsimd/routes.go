package main

// Route table and the machine-readable surface index. Every mux
// registration lives in routeTable — the single source the server
// registers handlers from AND generates GET /v1 from, so the index can
// never drift from the real surface (a test walks the table and
// requires both to agree).

import (
	"net/http"

	"github.com/ntvsim/ntvsim/internal/buildinfo"
	"github.com/ntvsim/ntvsim/internal/cluster"
)

// apiVersion is the current revision of the v1 surface: the PR
// numbering of CHANGES.md, which docs/API.md's since-markers reference.
const apiVersion = 26

// route is one mux registration plus the surface metadata GET /v1
// serves for it.
type route struct {
	method  string
	pattern string
	since   int    // apiVersion revision that introduced the route
	note    string // surfaced verbatim in the index (gating, caveats)
	h       http.HandlerFunc
}

// routeTable is the complete public surface. Cluster routes are always
// registered — on a non-coordinator they answer with the typed
// cluster_disabled envelope, mirroring how ledger routes behave without
// -data-dir — so the index is identical across roles and clients can
// discover the full protocol everywhere.
func (s *server) routeTable() []route {
	return []route{
		{"GET", "/healthz", 1, "", s.handleHealthz},
		{"GET", "/v1", 9, "", s.handleIndex},
		{"GET", "/v1/experiments", 1, "", s.handleExperiments},
		{"GET", "/v1/kernels", 6, "", s.handleKernels},
		{"POST", "/v1/jobs", 1, "", s.handleSubmit},
		{"GET", "/v1/jobs", 1, "", s.handleListJobs},
		{"GET", "/v1/jobs/{id}", 1, "", s.handleGetJob},
		{"POST", "/v1/jobs/{id}/cancel", 1, "", s.handleCancel},
		{"GET", "/v1/jobs/{id}/progress", 2, "", s.handleProgress},
		{"GET", "/v1/jobs/{id}/events", 2, "", s.handleEvents},
		{"POST", "/v1/sweeps", 4, "", s.handleSubmitSweep},
		{"GET", "/v1/sweeps", 4, "", s.handleListSweeps},
		{"GET", "/v1/sweeps/{id}", 4, "", s.handleGetSweep},
		{"POST", "/v1/sweeps/{id}/cancel", 4, "", s.handleCancelSweep},
		{"GET", "/v1/sweeps/{id}/events", 4, "", s.handleSweepEvents},
		{"GET", "/v1/runs", 7, "requires -data-dir", s.handleListRuns},
		{"GET", "/v1/runs/{id}", 7, "requires -data-dir", s.handleGetRun},
		{"GET", "/v1/cluster", 9, "requires -role coordinator", s.handleClusterStatus},
		{"POST", "/v1/cluster/lease", 9, "requires -role coordinator", s.handleClusterLease},
		{"POST", "/v1/cluster/heartbeat", 9, "requires -role coordinator", s.handleClusterHeartbeat},
		{"POST", "/v1/cluster/complete", 9, "requires -role coordinator", s.handleClusterComplete},
		{"GET", "/debug/trace/{id}", 2, "", s.handleTrace},
		{"GET", "/metrics", 2, "", s.handleMetrics},
		{"GET", "/metrics/expvar", 2, "retired in revision 13: answers 410 endpoint_retired", s.handleRetiredExpvar},
	}
}

// routeInfo is one entry of the GET /v1 route catalogue: the same path
// may appear once with several methods.
type routeInfo struct {
	Path    string   `json:"path"`
	Methods []string `json:"methods"`
	Since   int      `json:"since"` // api_version revision that introduced it
	Note    string   `json:"note,omitempty"`
}

// indexPayload is the typed GET /v1 response: service identity, role,
// protocol revisions, and the generated route catalogue.
type indexPayload struct {
	Service         string      `json:"service"`
	Version         string      `json:"version"`
	APIVersion      int         `json:"api_version"`
	Role            string      `json:"role"`
	ClusterProtocol int         `json:"cluster_protocol_version"`
	Routes          []routeInfo `json:"routes"`
}

// handleIndex serves the machine-readable surface index, generated from
// the same table the mux was registered from.
func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	byPath := map[string]*routeInfo{}
	var order []string
	for _, rt := range s.routes {
		ri, ok := byPath[rt.pattern]
		if !ok {
			ri = &routeInfo{Path: rt.pattern, Since: rt.since, Note: rt.note}
			byPath[rt.pattern] = ri
			order = append(order, rt.pattern)
		}
		ri.Methods = append(ri.Methods, rt.method)
		if rt.since < ri.Since {
			ri.Since = rt.since
		}
	}
	out := make([]routeInfo, 0, len(order))
	for _, p := range order {
		out = append(out, *byPath[p])
	}
	writeJSON(w, http.StatusOK, indexPayload{
		Service:         "ntvsimd",
		Version:         buildinfo.Read().Version,
		APIVersion:      apiVersion,
		Role:            s.role,
		ClusterProtocol: cluster.ProtocolVersion,
		Routes:          out,
	})
}

// clusterEnabled gates a /v1/cluster/* handler on the coordinator role,
// answering the typed cluster_disabled envelope otherwise (the cluster
// sibling of ledger_disabled).
func (s *server) clusterEnabled(w http.ResponseWriter) bool {
	if s.cluster == nil {
		cluster.WriteError(w, http.StatusNotFound, cluster.CodeClusterDisabled,
			"cluster mode disabled; start ntvsimd with -role coordinator (and -data-dir) to serve shards")
		return false
	}
	return true
}

func (s *server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	s.cluster.HandleStatus(w, r)
}

// handleClusterLease grants shard leases. A draining coordinator grants
// nothing — workers keep polling and finish what they hold, while the
// journal keeps every uploaded result for the next boot.
func (s *server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusOK, cluster.LeaseResponse{Leases: []cluster.Grant{}})
		return
	}
	s.cluster.HandleLease(w, r)
}

func (s *server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	s.cluster.HandleHeartbeat(w, r)
}

// handleClusterComplete accepts result uploads even while draining:
// a computed shard is valuable and the journal makes it durable.
func (s *server) handleClusterComplete(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	s.cluster.HandleComplete(w, r)
}
