package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// oracleJSON is the reference encoding of the routing bodies:
// encoding/json's indented Encoder, the path they used before the
// fixed-schema encoders.
func oracleJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkRouteJSON(t *testing.T, got []byte, v any) {
	t.Helper()
	if want := oracleJSON(t, v); !bytes.Equal(got, want) {
		t.Fatalf("%T %+v:\n got: %q\nwant: %q", v, v, got, want)
	}
}

// FuzzDispatchJSON compares the dispatch and batch encoders with
// encoding/json on arbitrary values: names with HTML-escaped and
// control bytes or invalid UTF-8, zero and negative integers, and nil,
// empty and long station lists.
func FuzzDispatchJSON(f *testing.F) {
	f.Add(3, "", int64(1), 0, uint8(0), []byte{}, 0)
	f.Add(0, "rack-0 <a&b> \"é\"", int64(0), 1, uint8(3), []byte{1, 0, 0, 0, 2, 0, 0, 0}, 4)
	f.Add(-1, "\x00\x1f\t\n\r\b\f\\/\u2028\u2029", int64(-7), -2, uint8(4), []byte(nil), -3)
	f.Add(math.MaxInt32, "\xff\xfe\xc3", int64(math.MinInt64), math.MinInt32, uint8(1), []byte{0xff, 0xff, 0xff, 0xff}, math.MaxInt32)
	f.Add(9999, "\xe2\x80", int64(math.MaxInt64), 2, uint8(2), bytes.Repeat([]byte{7, 1, 0, 0}, 64), 1)
	f.Fuzz(func(t *testing.T, station int, name string, version int64, attempts int, flags uint8, stations []byte, rejected int) {
		d := DispatchResponse{
			Station: station, Name: name, PlanVersion: version,
			Attempts: attempts, Trial: flags&1 != 0, Hedged: flags&2 != 0,
		}
		checkRouteJSON(t, appendDispatchJSON(nil, &d), d)

		b := BatchDispatchResponse{PlanVersion: version, Rejected: rejected}
		if flags&4 == 0 {
			b.Stations = make([]int, len(stations)/4)
			for i := range b.Stations {
				b.Stations[i] = int(int32(binary.LittleEndian.Uint32(stations[4*i:])))
			}
		}
		checkRouteJSON(t, appendBatchJSON(nil, &b), b)
	})
}

// TestRouteJSONCoversEveryField is the schema guard of the routing
// encoders: every exported field of DispatchResponse and
// BatchDispatchResponse set non-zero must encode as encoding/json
// encodes it, so a field added to either struct but not to its encoder
// fails here instead of silently vanishing from the response.
func TestRouteJSONCoversEveryField(t *testing.T) {
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i)
			if !field.IsExported() {
				continue
			}
			switch x := v.Field(i).Addr().Interface().(type) {
			case *int:
				*x = 10 + i
			case *int64:
				*x = int64(20 + i)
			case *bool:
				*x = true
			case *string:
				*x = "name <&>"
			case *[]int:
				*x = []int{i, 0, -1}
			default:
				t.Fatalf("%s.%s has type %s: teach its encoder and this test about it", v.Type(), field.Name, field.Type)
			}
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s left zero", v.Type(), field.Name)
			}
		}
	}
	var d DispatchResponse
	fill(reflect.ValueOf(&d).Elem())
	checkRouteJSON(t, appendDispatchJSON(nil, &d), d)
	var b BatchDispatchResponse
	fill(reflect.ValueOf(&b).Elem())
	checkRouteJSON(t, appendBatchJSON(nil, &b), b)
	checkRouteJSON(t, observeAck, map[string]bool{"recorded": true})
}
