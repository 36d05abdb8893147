package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/dse"
	"repro/internal/server"
)

// rateStep is one fixed offered load of serve-mixed. The rates are
// absolute and never calibrate to the machine: they were chosen on a
// 2-CPU host so that low and mid meet the p99 latency limit and high
// runs near capacity without an unbounded backlog.
type rateStep struct {
	name string
	rps  float64
}

var serveSteps = []rateStep{{"low", 400}, {"mid", 1000}, {"high", 2000}}

// midStep is the step the end-to-end metrics come from.
const midStep = 1

const (
	// latencyLimitMS is the p99 a rate step must meet to count towards
	// bench.max_rate_rps.
	latencyLimitMS = 5.0
	// lagLimitMS is the generator lag p99 beyond which a step is invalid:
	// the generator, not the server, would be setting the latency.
	lagLimitMS = 1.0
)

// stepResult is the outcome of one rate step's timed requests.
type stepResult struct {
	rateStep
	p50, p99 float64 // latency from the due time, ms
	lagP99   float64 // send time minus due time, ms
	failed   int
}

// valid reports whether the generator kept its schedule.
func (s stepResult) valid() bool { return s.lagP99 <= lagLimitMS }

// meets reports whether the step met the latency limit without failures.
func (s stepResult) meets() bool { return s.valid() && s.failed == 0 && s.p99 <= latencyLimitMS }

// family mix of serve-mixed: the paper's c2bound objective and the three
// literature bounds, each over the four catalog applications.
var serveFamilies = []struct {
	name   string
	weight float64
	per    int // grid values per dimension; 0: the family's full grid
}{
	{"c2bound", 0.7, -1}, // per is servePer
	{"gpu", 0.1, 0},
	{"commsync", 0.1, 0},
	{"sqrtm", 0.1, 0},
}

var catalogApps = []string{"tmm", "stencil", "fft", "fluidanimate"}

// serveModel is one (family, app) model of the serve-mixed universe.
type serveModel struct {
	spec  server.ModelSpec
	space dse.Space
	ev    *dse.FamilyEvaluator // oracle
}

// serveUniverse is every model serve-mixed addresses, with a seeded
// Zipf(1.1) popularity over each family's (app, point) keys. The c2bound
// universe (4 apps × per^6 points) is larger than the engine's 2^18-entry
// cache, so the popular keys hit and the tail keeps missing.
type serveUniverse struct {
	models [][]*serveModel // [family][app]
	keys   []keyspace      // [family]
}

func newServeUniverse(cfg config) (*serveUniverse, error) {
	u := &serveUniverse{}
	r := newRand(mix(cfg.seed, 0x5e7e))
	for _, f := range serveFamilies {
		per := f.per
		if per < 0 {
			per = servePer
		}
		var ms []*serveModel
		for _, app := range catalogApps {
			spec := server.ModelSpec{App: app}
			if f.name != "c2bound" {
				spec = server.ModelSpec{Schema: server.CatalogSchema, App: app, Family: f.name}
			}
			m, err := catalog.ResolveModel(spec)
			if err != nil {
				return nil, err
			}
			space, err := dse.SpaceFor(m, per)
			if err != nil {
				return nil, err
			}
			ms = append(ms, &serveModel{spec: spec, space: space, ev: dse.NewFamilyEvaluator(m)})
		}
		u.models = append(u.models, ms)
		u.keys = append(u.keys, newKeyspace(r, uint64(len(ms)*ms[0].space.Size())))
	}
	return u, nil
}

// serveItem is one scheduled serve-mixed request.
type serveItem struct {
	due    time.Duration // offset from the step's start
	timed  bool          // false during the step's warm-up
	model  *serveModel
	points []int // flat indices into model.space
	call   call

	values []float64 // decoded from the response
	err    error     // decoding failure
}

// schedule draws one rate step's Poisson arrivals and their requests.
// Each step has its own stream of the seed, so a step's schedule does
// not depend on which other steps run.
func (u *serveUniverse) schedule(cfg config, step int, measured float64) []*serveItem {
	r := newRand(mix(cfg.seed, 0x57e9, uint64(step)))
	zipfs := make([]*rand.Zipf, len(u.keys))
	for f, ks := range u.keys {
		zipfs[f] = rand.NewZipf(r, 1.1, 1, ks.n-1)
	}
	rps := serveSteps[step].rps
	total := time.Duration((cfg.warm + measured) * float64(time.Second))
	warm := time.Duration(cfg.warm * float64(time.Second))
	var items []*serveItem
	t := time.Duration(0)
	for {
		t += time.Duration(r.ExpFloat64() / rps * float64(time.Second))
		if t >= total {
			return items
		}
		f := pickFamily(r.Float64())
		ks := u.keys[f]
		size := uint64(u.models[f][0].space.Size())
		key := ks.key(zipfs[f].Uint64())
		it := &serveItem{due: t, timed: t >= warm, model: u.models[f][key/size], points: []int{int(key % size)}}
		if r.Float64() < 0.2 {
			for len(it.points) < cfg.batchPoints {
				it.points = append(it.points, int(ks.key(zipfs[f].Uint64())%size))
			}
			pts := make([][]float64, len(it.points))
			for i, idx := range it.points {
				pts[i] = it.model.space.Point(idx)
			}
			it.call = call{path: "/v1/evaluate:batch", body: mustJSON(server.BatchRequest{Model: it.model.spec, Points: pts})}
		} else {
			it.call = call{path: "/v1/evaluate", body: mustJSON(server.EvaluateRequest{Model: it.model.spec, Point: it.model.space.Point(it.points[0])})}
		}
		items = append(items, it)
	}
}

// pickFamily maps a uniform draw onto the family weights.
func pickFamily(x float64) int {
	for i, f := range serveFamilies {
		if x < f.weight {
			return i
		}
		x -= f.weight
	}
	return len(serveFamilies) - 1
}

// decode reads the served values out of the response body and drops
// the bodies.
func (it *serveItem) decode() {
	if it.call.path == "/v1/evaluate" {
		var v float64
		v, it.err = evaluateValue(it.call.resp)
		it.values = []float64{v}
	} else {
		it.values, it.err = batchValues(it.call.resp, len(it.points))
	}
	it.call.resp, it.call.body = nil, nil
}

// check compares the served values with the family evaluator, bit for
// bit.
func (it *serveItem) check() error {
	for i, idx := range it.points {
		want, err := it.model.ev.EvaluateCtx(bgCtx, it.model.space.Point(idx))
		if err != nil {
			return err
		}
		if !sameBits(it.values[i], want) {
			return fmt.Errorf("serve-mixed %s point %d: served %v, oracle %v", it.model.spec.App, idx, it.values[i], want)
		}
	}
	return nil
}

// runServeMixed is the open-loop workload: Poisson arrivals at fixed
// rates, every request timed from its due time.
func runServeMixed(ph *phase) error {
	u, err := newServeUniverse(ph.cfg)
	if err != nil {
		return err
	}
	steps := []int{midStep}
	measured := ph.seconds
	if ph.allRates {
		steps = []int{0, 1, 2}
		measured = ph.seconds / float64(len(steps))
	}
	for _, s := range steps {
		items := u.schedule(ph.cfg, s, measured)
		res := ph.openLoop(items, s == midStep)
		res.rateStep = serveSteps[s]
		ph.steps = append(ph.steps, res)
		fmt.Fprintf(os.Stderr, "serve-mixed %-4s %5.0f/s: p50 %.3f ms, p99 %.3f ms, generator lag p99 %.3f ms, %d failed, valid=%v\n",
			res.name, res.rps, res.p50, res.p99, res.lagP99, res.failed, res.valid())
	}
	return nil
}

// openLoop sends each item at its due time whatever the state of earlier
// requests; the transport queues what the connections cannot carry.
// bracket makes the step's timed requests the phase's begin/end window
// and its samples the phase's samples.
func (ph *phase) openLoop(items []*serveItem, bracket bool) stepResult {
	// The dispatcher sleeps in nanosleep on a thread of its own: Go's
	// timers wake sub-millisecond sleeps up to a millisecond late, which
	// would show up as generator lag rather than server latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var wg sync.WaitGroup
	start := time.Now()
	began := false
	for _, it := range items {
		if it.timed && bracket && !began {
			ph.begin()
			began = true
		}
		due := start.Add(it.due)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		wg.Add(1)
		go func(it *serveItem) {
			defer wg.Done()
			ph.st.do(ph.ctx, ph.client, &it.call, it.timed)
			if it.call.ok() {
				it.decode()
			}
		}(it)
	}
	wg.Wait()
	if bracket {
		ph.end()
	}

	var res stepResult
	var lat, lag []float64
	failed0 := ph.failed
	for _, it := range items {
		if !it.timed {
			continue
		}
		due := start.Add(it.due)
		lag = append(lag, ms(it.call.sent.Sub(due)))
		ph.attempted++
		switch {
		case !it.call.ok():
			ph.fail(it.call.failure())
		case it.err != nil:
			ph.fail(it.err)
		default:
			lat = append(lat, ms(it.call.done.Sub(due)))
			if bracket {
				ph.samples = append(ph.samples, sample{latency: it.call.done.Sub(due), points: len(it.points)})
			}
			ph.checks = append(ph.checks, it.check)
		}
	}
	res.p50 = percentile(lat, 50)
	res.p99 = percentile(lat, 99)
	res.lagP99 = percentile(lag, 99)
	res.failed = ph.failed - failed0
	return res
}

// keyspace maps Zipf ranks onto n keys through a seeded bijection
// (multiplication by a unit mod n plus an offset), scattering the
// popular ranks across applications and points.
type keyspace struct {
	n, mul, add uint64
}

func newKeyspace(r *rand.Rand, n uint64) keyspace {
	mul := r.Uint64()%n | 1
	for gcd(mul, n) != 1 {
		mul += 2
	}
	return keyspace{n: n, mul: mul % n, add: r.Uint64() % n}
}

func (k keyspace) key(rank uint64) uint64 { return (rank%k.n*k.mul + k.add) % k.n }

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
