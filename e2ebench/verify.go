package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/sweep"
)

// verifyEvery selects the verified studies: every study whose index is
// a multiple of it keeps its served results and is re-evaluated
// in-process after the window.
const verifyEvery = 10

// digestStudies bounds the studies that enter results_sha256 to the
// verified ones below this index, which every run of every workload
// completes, so two runs with one seed digest the same studies.
const digestStudies = 20

// reference is the in-process evaluation of one request: the rendered
// artifact and its structured payload decoded as generic JSON.
type reference struct {
	render string
	data   any
}

// referenceOf evaluates req without the daemon: sweeps through
// sweep.RunSerial (no pool, cache or HTTP), jobs through
// experiments.RunCtx.
func referenceOf(ctx context.Context, req request) (reference, error) {
	var res experiments.Result
	var err error
	if req.Sweep != nil {
		res, err = sweep.RunSerial(ctx, *req.Sweep)
	} else {
		res, err = experiments.RunCtx(ctx, req.Job.Experiment, req.Job.Config)
	}
	if err != nil {
		return reference{}, fmt.Errorf("reference %s: %w", req.name(), err)
	}
	ref := reference{render: res.Render()}
	if j, ok := res.(experiments.JSONer); ok {
		b, err := json.Marshal(j.JSON())
		if err != nil {
			return reference{}, fmt.Errorf("reference %s: encoding data: %w", req.name(), err)
		}
		if err := json.Unmarshal(b, &ref.data); err != nil {
			return reference{}, fmt.Errorf("reference %s: decoding data: %w", req.name(), err)
		}
	}
	return ref, nil
}

// matches reports whether a served result equals the reference: a
// byte-identical render and equal decoded data.
func (ref reference) matches(s served) (bool, error) {
	if s.Render != ref.render {
		return false, nil
	}
	var data any
	if len(s.Data) > 0 {
		if err := json.Unmarshal(s.Data, &data); err != nil {
			return false, fmt.Errorf("decoding served data: %w", err)
		}
	}
	return reflect.DeepEqual(data, ref.data), nil
}

// verification summarizes one post-window check of served results.
type verification struct {
	Verified   int    // studies re-evaluated and compared
	Mismatches int    // requests whose served result differed
	Digest     string // results_sha256
}

// verifier checks served results against in-process references,
// computing each distinct request's reference once per run, so a
// workload that resubmits one pool evaluates it once.
type verifier struct {
	refs     map[string]reference
	serial   time.Duration // spent computing references
	computed int           // studies that needed at least one new reference
}

// serialMSPerStudy is the in-process reference cost of one study: the
// serving-free floor its latency is compared with.
func (v *verifier) serialMSPerStudy() float64 {
	if v.computed == 0 {
		return 0
	}
	return float64(v.serial) / float64(time.Millisecond) / float64(v.computed)
}

// verify re-evaluates every study of outs that kept its results, marks
// studies with a mismatched result failed, and digests the verified
// results of studies below digestStudies.
func (vr *verifier) verify(ctx context.Context, outs []outcome) (verification, error) {
	var v verification
	h := sha256.New()
	for i := range outs {
		o := &outs[i]
		if o.Err != "" || o.Results == nil {
			continue
		}
		v.Verified++
		fresh := false
		for k, req := range o.Requested {
			key := req.path() + string(req.body())
			ref, ok := vr.refs[key]
			if !ok {
				t0 := time.Now()
				var err error
				if ref, err = referenceOf(ctx, req); err != nil {
					return v, err
				}
				vr.serial += time.Since(t0)
				fresh = true
				vr.refs[key] = ref
			}
			ok, err := ref.matches(o.Results[k])
			if err != nil {
				return v, fmt.Errorf("study %d %s: %w", o.Index, req.name(), err)
			}
			if !ok {
				v.Mismatches++
				o.Err = fmt.Sprintf("%s %s: served result differs from the in-process reference", req.name(), o.IDs[k])
				continue
			}
			if o.Index < digestStudies {
				canon, err := json.Marshal(ref.data)
				if err != nil {
					return v, err
				}
				fmt.Fprintf(h, "study %d %s\n%s\n%s\n", o.Index, req.name(), ref.render, canon)
			}
		}
		if fresh {
			vr.computed++
		}
	}
	v.Digest = hex.EncodeToString(h.Sum(nil))
	return v, nil
}
