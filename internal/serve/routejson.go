package serve

import "strconv"

// The routing endpoints' 2xx bodies, written without reflection: byte
// for byte what json.Encoder with SetIndent("", "  ") writes for the
// same values, trailing newline included. As with encodePlan, the
// schema is fixed here, so a field added to DispatchResponse or
// BatchDispatchResponse must be added to its encoder as well;
// TestRouteJSONCoversEveryField fails until it is.

// observeAck is the POST /v1/observe acknowledgement, the indented
// encoding of {"recorded": true}.
var observeAck = []byte("{\n  \"recorded\": true\n}\n")

// dispatchBodyBytes is the initial buffer for a dispatch body: enough
// for every field with small numbers and a name of about 40 bytes;
// append grows it past that.
const dispatchBodyBytes = 160

// appendDispatchJSON appends the indented encoding of r to b.
func appendDispatchJSON(b []byte, r *DispatchResponse) []byte {
	b = append(b, "{\n  \"station\": "...)
	b = strconv.AppendInt(b, int64(r.Station), 10)
	if r.Name != "" {
		b = append(b, ",\n  \"name\": "...)
		b = appendJSONString(b, r.Name)
	}
	b = append(b, ",\n  \"plan_version\": "...)
	b = strconv.AppendInt(b, r.PlanVersion, 10)
	if r.Attempts != 0 {
		b = append(b, ",\n  \"attempts\": "...)
		b = strconv.AppendInt(b, int64(r.Attempts), 10)
	}
	if r.Trial {
		b = append(b, ",\n  \"trial\": true"...)
	}
	if r.Hedged {
		b = append(b, ",\n  \"hedged\": true"...)
	}
	return append(b, "\n}\n"...)
}

// appendBatchJSON appends the indented encoding of r to b; a nil
// Stations slice is null, as in encoding/json.
func appendBatchJSON(b []byte, r *BatchDispatchResponse) []byte {
	b = append(b, "{\n  \"plan_version\": "...)
	b = strconv.AppendInt(b, r.PlanVersion, 10)
	b = append(b, ",\n  \"stations\": "...)
	switch {
	case r.Stations == nil:
		b = append(b, "null"...)
	case len(r.Stations) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, st := range r.Stations {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = strconv.AppendInt(b, int64(st), 10)
		}
		b = append(b, "\n  ]"...)
	}
	if r.Rejected != 0 {
		b = append(b, ",\n  \"rejected\": "...)
		b = strconv.AppendInt(b, int64(r.Rejected), 10)
	}
	return append(b, "\n}\n"...)
}
