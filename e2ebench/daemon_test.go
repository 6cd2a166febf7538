package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := "4242 (ntv sim) (d)) S 1 4242 4242 0 -1 4194560 1510 0 0 0 731 86 0 0 20 0 9 0 12345 1234567 890 18446744073709551615\n"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+86 {
		t.Errorf("utime+stime = %d, want %d", got, 731+86)
	}
	for _, bad := range []string{"", "4242 ntvsimd S 1", "4242 (x) S 1 2 3"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tntvsimd\nVmPeak:\t  812345 kB\nVmHWM:\t   31744 kB\nVmRSS:\t   30000 kB\nThreads:\t9\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 31744 {
		t.Errorf("VmHWM = %d, %v; want 31744", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB(status, "Threads"); err == nil {
		t.Error("unitless value accepted as kB")
	}
}

func TestParsePrometheus(t *testing.T) {
	text := `# HELP ntvsimd_http_requests_total HTTP requests served.
# TYPE ntvsimd_http_requests_total counter
ntvsimd_http_requests_total{method="GET",code="200"} 12
ntvsimd_http_requests_total{method="POST",code="202"} 3
ntvsimd_cache_hits_total 7
ntvsim_build_info{version="(devel)",go="go1.24.0",revision="abc123 x"} 1
`
	p, err := parsePrometheus(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.family("ntvsimd_http_requests_total"); got != 15 {
		t.Errorf("request family sum = %g, want 15", got)
	}
	if got := p.family("ntvsimd_cache_hits_total"); got != 7 {
		t.Errorf("cache hits = %g, want 7", got)
	}
	if got := p.family("ntvsimd_cache_hits"); got != 0 {
		t.Errorf("a name prefix matched another family: %g", got)
	}
	if got := revision(p); got != "abc123 x" {
		t.Errorf("revision = %q", got)
	}
	if _, err := parsePrometheus("metric_without_value\n"); err == nil {
		t.Error("malformed line accepted")
	}
}
