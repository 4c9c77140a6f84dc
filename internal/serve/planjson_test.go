package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden wire-format files from the current encoder")

// goldenNow is the fixed clock of the golden plans: a non-UTC zone and
// a nanosecond fraction so solved_at exercises the full RFC 3339 form.
var goldenNow = time.Date(2026, 8, 7, 12, 34, 56, 123456789, time.FixedZone("", 2*3600))

// TestPlanGolden pins the /v1/plan wire format byte for byte: field
// order, omitempty, float text, time format, string escaping and the
// trailing newline. The floats come from the solver, so the files also
// pin its arithmetic on the platform that generated them (amd64,
// without fused multiply-add). Regenerate with
//
//	go test ./internal/serve -run TestPlanGolden -update
//
// only for a deliberate wire-format change.
func TestPlanGolden(t *testing.T) {
	now := func() time.Time { return goldenNow }
	t.Run("example1", func(t *testing.T) {
		// GET /v1/plan on the paper's Example 1 at half saturation: the
		// static split, no up vector, no ramp.
		s := newTestServer(t, func(c *Config) { c.Now = now })
		w := getPath(t, s.Handler(), "/v1/plan")
		checkGolden(t, w.Code, w.Body.Bytes(), "plan_example1.golden")
	})
	t.Run("example1_jsq2_down_ramp", func(t *testing.T) {
		// POST /v1/plan under JSQ(2) with station 6 downed by the
		// operator and station 0 halfway through its recovery ramp:
		// every omitempty field is present.
		s := newTestServer(t, func(c *Config) {
			c.Now = now
			c.Policy = PolicyJSQ
			c.Breaker.ScanInterval = time.Hour
		})
		h := s.Handler()
		if w := postJSON(t, h, "/v1/health", map[string]any{"station": 6, "up": false}); w.Code != http.StatusAccepted {
			t.Fatalf("health post status %d: %s", w.Code, w.Body)
		}
		waitPlanVersion(t, s, 2)
		s.breakers.stations[0].rampStart.Store(goldenNow.Add(-s.cfg.Breaker.RampWindow / 2).UnixNano())
		w := postJSON(t, h, "/v1/plan", map[string]any{"lambda": 0.4 * s.group.MaxGenericRate()})
		checkGolden(t, w.Code, w.Body.Bytes(), "plan_example1_jsq2_down_ramp.golden")
	})
}

func checkGolden(t *testing.T, code int, got []byte, name string) {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	checkGoldenBytes(t, got, name)
}

// checkGoldenBytes compares got with testdata/name, rewriting the file
// first under -update.
func checkGoldenBytes(t *testing.T, got []byte, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("body differs from %s:\n got: %q\nwant: %q", path, got, want)
	}
}

// oraclePlanJSON is the reference encoding: encoding/json's indented
// Encoder, the path /v1/plan used before encodePlan.
func oraclePlanJSON(p *Plan) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(p)
	return buf.Bytes(), err
}

// checkPlanJSON requires encodePlan to match the oracle byte for byte,
// or both to fail.
func checkPlanJSON(t *testing.T, p *Plan) {
	t.Helper()
	got, gotErr := encodePlan(p)
	want, wantErr := oraclePlanJSON(p)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("encodePlan error %v, encoding/json error %v", gotErr, wantErr)
	}
	if wantErr != nil || bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Fatalf("bodies differ at byte %d (len %d vs %d):\n got: %q\nwant: %q",
		i, len(got), len(want), got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// packFloats lays floats out as the little-endian bit patterns
// FuzzPlanJSON decodes.
func packFloats(fs ...float64) []byte {
	b := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	return b
}

// unpackFloats decodes 8-byte little-endian bit patterns; fewer than
// eight bytes give nil, or an empty slice when nonNil is set.
func unpackFloats(b []byte, nonNil bool) []float64 {
	n := len(b) / 8
	if n == 0 && !nonNil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// fuzzPlan builds a Plan from raw fuzz input. The low four bits of
// shape choose empty over nil for rates, utilizations, up and ramp when
// their input is too short to hold an element.
func fuzzPlan(version, survivors int64, scalars, rates, utils, up, ramp []byte, shape uint8, policy string, sec, nsec int64, zone int32) *Plan {
	sc := unpackFloats(append(scalars[:len(scalars):len(scalars)], make([]byte, 48)...), false)
	var ups []bool
	if len(up) > 0 || shape&4 != 0 {
		ups = make([]bool, len(up))
		for i, b := range up {
			ups[i] = b&1 != 0
		}
	}
	return &Plan{
		Version:         version,
		Lambda:          sc[0],
		Rates:           unpackFloats(rates, shape&1 != 0),
		Phi:             sc[1],
		AvgResponseTime: sc[2],
		Utilizations:    unpackFloats(utils, shape&2 != 0),
		Up:              ups,
		Survivors:       int(survivors),
		Capacity:        sc[3],
		Admitted:        sc[4],
		Shed:            sc[5],
		Ramp:            unpackFloats(ramp, shape&8 != 0),
		SolvedAt:        time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
		Policy:          policy,
	}
}

// FuzzPlanJSON holds encodePlan to encoding/json on plans built from
// raw float bits. The seeds cover subnormals, ±0, both sides of the
// 1e-6 and 1e21 format switches, non-finite values, nil versus empty
// slices, times outside MarshalJSON's range, policy strings that need
// escaping, and seeded random plans whose repeated values and slot
// collisions exercise the float memo.
func FuzzPlanJSON(f *testing.F) {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 0x1p-1022,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-10,
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22,
		123456789012345680000, math.MaxFloat64, -math.MaxFloat64,
		0.1, 1.0 / 3, 0.55, 1, 100, -2.5, 1e20, 1e-5,
	}
	reversed := make([]float64, len(edges))
	for i, v := range edges {
		reversed[len(edges)-1-i] = v
	}
	utc := time.Date(2026, 8, 7, 12, 34, 56, 123456789, time.UTC)
	f.Add(int64(0), int64(0), []byte(nil), []byte(nil), []byte(nil), []byte(nil), []byte(nil), uint8(0), "", int64(0), int64(0), int32(0))
	f.Add(int64(0), int64(0), []byte(nil), []byte(nil), []byte(nil), []byte(nil), []byte(nil), uint8(0xf), "", int64(0), int64(0), int32(0))
	f.Add(int64(-7), int64(3), packFloats(edges[:6]...), packFloats(edges...), packFloats(reversed...),
		[]byte{1, 0, 1}, packFloats(0.55, 1, 1), uint8(0), "jsq2", utc.Unix(), int64(utc.Nanosecond()), int32(5*3600+1800))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(int64(1), int64(1), packFloats(1, 2, 3, 4, 5, bad), packFloats(1), packFloats(1), []byte(nil), []byte(nil), uint8(0), "", int64(0), int64(0), int32(0))
		f.Add(int64(1), int64(1), []byte(nil), packFloats(1, bad, 1), packFloats(1), []byte(nil), []byte(nil), uint8(0), "", int64(0), int64(0), int32(0))
	}
	for _, policy := range []string{
		"<script>&amp;</script>", `say "hi" \ bye`, "\x00\x01\x1f\b\f\n\r\t\x7f ",
		"bad \xff\xfe utf8", "cut \xe2\x80", "sep \u2028 \u2029 end", "héllo ✓ 𝄞",
	} {
		f.Add(int64(2), int64(2), []byte(nil), packFloats(1), packFloats(0.5), []byte(nil), []byte(nil), uint8(0), policy, utc.Unix(), int64(0), int32(0))
	}
	for _, year := range []int{-1, 0, 9999, 10000} {
		t := time.Date(year, 1, 2, 3, 4, 5, 6, time.UTC)
		f.Add(int64(3), int64(0), []byte(nil), []byte(nil), []byte(nil), []byte(nil), []byte(nil), uint8(0), "", t.Unix(), int64(6), int32(0))
	}
	for _, zone := range []int32{-12 * 3600, 23*3600 + 59*60, 24 * 3600, 61} {
		f.Add(int64(4), int64(0), []byte(nil), []byte(nil), []byte(nil), []byte(nil), []byte(nil), uint8(0), "", utc.Unix(), int64(0), zone)
	}
	// Seeded random plans: values drawn from the edges, fresh random
	// bits, or a repeat of an earlier value, so the memo sees hits,
	// misses and evictions.
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch k := rng.Intn(4); {
			case k == 0:
				v[i] = edges[rng.Intn(len(edges))]
			case k == 1 || i == 0:
				v[i] = math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
			default:
				v[i] = v[rng.Intn(i)]
			}
		}
		return v
	}
	for i := 0; i < 200; i++ {
		n := rng.Intn(300)
		up := make([]byte, rng.Intn(2)*n)
		rng.Read(up)
		f.Add(rng.Int63(), int64(rng.Intn(n+1)), packFloats(draw(6)...), packFloats(draw(n)...), packFloats(draw(n)...),
			up, packFloats(draw(rng.Intn(2)*n)...), uint8(rng.Intn(16)), []string{"", "static", "jsq2", "jsq3"}[rng.Intn(4)],
			rng.Int63n(1<<35), rng.Int63n(1e9), int32(rng.Intn(48*3600)-24*3600))
	}
	f.Fuzz(func(t *testing.T, version, survivors int64, scalars, rates, utils, up, ramp []byte, shape uint8, policy string, sec, nsec int64, zone int32) {
		checkPlanJSON(t, fuzzPlan(version, survivors, scalars, rates, utils, up, ramp, shape, policy, sec, nsec, zone))
	})
}

// TestPlanJSONCoversEveryField is the schema guard: it sets every
// exported Plan field to a non-zero value and requires encodePlan to
// match encoding/json, so a field added to Plan but not to encodePlan
// fails here instead of silently vanishing from /v1/plan.
func TestPlanJSONCoversEveryField(t *testing.T) {
	var p Plan
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		switch x := v.Field(i).Addr().Interface().(type) {
		case *int64:
			*x = int64(10 + i)
		case *int:
			*x = 10 + i
		case *float64:
			*x = 0.25 + float64(i)
		case *[]float64:
			*x = []float64{float64(i), 1e-7, 0.5}
		case *[]bool:
			*x = []bool{true, false}
		case *time.Time:
			*x = goldenNow
		case *string:
			*x = "jsq2"
		default:
			t.Fatalf("Plan.%s has type %s: teach encodePlan and this test about it", field.Name, field.Type)
		}
		if v.Field(i).IsZero() {
			t.Fatalf("Plan.%s left zero", field.Name)
		}
	}
	checkPlanJSON(t, &p)
	checkPlanJSON(t, nil)
}

// TestPlanJSONFleet10k compares /v1/plan with the oracle on the
// 10,000-station fleet of the N10k benchmarks, with every station up
// and again after one is downed (so the body carries a 10k up vector).
func TestPlanJSONFleet10k(t *testing.T) {
	const n = 10000
	sizes := make([]int, n)
	speeds := make([]float64, n)
	for i := range sizes {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	g, err := model.PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Group = g
		c.Lambda = 0.5 * g.MaxGenericRate()
		c.Opts = core.Options{Sparse: true}
	})
	h := s.Handler()
	check := func() {
		t.Helper()
		w := getPath(t, h, "/v1/plan")
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		want, err := oraclePlanJSON(s.Plan())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("GET /v1/plan (%d bytes) differs from encoding/json (%d bytes)", w.Body.Len(), len(want))
		}
	}
	check()
	if w := postJSON(t, h, "/v1/health", map[string]any{"station": 3, "up": false}); w.Code != http.StatusAccepted {
		t.Fatalf("health post status %d: %s", w.Code, w.Body)
	}
	if p := waitPlanVersion(t, s, 2); len(p.Up) != n {
		t.Fatalf("degraded plan up vector has %d entries", len(p.Up))
	}
	check()
}

// TestGetPlanEncodeError checks that a plan the encoder rejects
// answers 500 with an error body on GET /v1/plan rather than a partial
// or empty 200.
func TestGetPlanEncodeError(t *testing.T) {
	s := newTestServer(t, nil)
	bad := *s.Plan()
	bad.Rates = append([]float64{math.NaN()}, bad.Rates[1:]...)
	s.plan.Store(&bad)
	w := getPath(t, s.Handler(), "/v1/plan")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	var body struct{ Error string }
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "unsupported value: NaN") {
		t.Fatalf("body %q (err %v), want an encoding error", w.Body, err)
	}
}
