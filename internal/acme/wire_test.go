package acme

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The tests in this file hold the append-built codecs against
// encoding/json, used here only as an oracle: the encoders must emit its
// bytes, and whatever the strict decoder accepts, encoding/json must
// accept and decode to the same value.

// wireSamples are real API messages: what Client and Server send.
var wireSamples = []any{
	&OrderRequest{Hostnames: []string{"portal.gov.br"}, KeyType: "RSA", KeyBits: 2048, KeyID: "00112233445566778899aabbccddeeff"},
	&OrderRequest{Hostnames: []string{"a.gov.br", "*.b.gouv.fr"}, KeyType: "EC", KeyBits: 256, KeyID: "zz"},
	&OrderRequest{},
	&OrderResponse{OrderID: "order-000001", Tokens: map[string]string{"portal.gov.br": "tok-000001-0-1a2b3c4d"}},
	&OrderResponse{OrderID: "order-000002", Tokens: map[string]string{"b.gov": "t2", "a.gov": "t1", "c.gov": "t3"}},
	&OrderResponse{OrderID: "order-000003", Tokens: map[string]string{}},
	&OrderResponse{},
	&FinalizeRequest{OrderID: "order-000001"},
	&Problem{Error: `acme: rate limited: too many orders for registered domain "gov.br"`, Code: "rateLimited", RetryAfter: "2020-04-08T00:00:00Z"},
	&Problem{Error: "acme: CAA record forbids issuance: locked.gov.br restricts issuance", Code: "caa"},
	&Problem{},
	&Problem{Error: "<&> \u2028 \x01 \"quoted\" \\ \xff tab\t", Code: "malformed"},
}

func encodeSample(v any) []byte {
	switch v := v.(type) {
	case *OrderRequest:
		return appendOrderRequest(nil, v)
	case *OrderResponse:
		return appendOrderResponse(nil, v)
	case *FinalizeRequest:
		return appendFinalizeRequest(nil, v)
	case *Problem:
		return appendProblem(nil, v)
	}
	panic("unknown wire type")
}

// TestWireEncodersMatchEncodingJSON: every encoder emits encoding/json's
// bytes for the same value, HTML escaping and sorted map keys included.
func TestWireEncodersMatchEncodingJSON(t *testing.T) {
	for _, v := range wireSamples {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeSample(v); !bytes.Equal(got, want) {
			t.Errorf("%T:\n got %s\nwant %s", v, got, want)
		}
	}
}

// TestWireDecoderRejects covers the inputs the decoder must refuse,
// including those where it is deliberately stricter than encoding/json.
func TestWireDecoderRejects(t *testing.T) {
	deep := `{"x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `}`
	for _, in := range []string{
		``, `null`, `[]`, `"x"`, `{`, `{"order_id":}`, `{"order_id":"a"} x`, `{"order_id":"a",}`,
		`{"order_id":1}`, `{"order_id":"\x01"}`, "{\"order_id\":\"\xff\"}", `{"order_id":"\q"}`,
		`{"order_id":"\u12"}`, `{"order_id":0"}`, `{"x":0123}`, `{"x":-}`, `{"x":1.}`, `{"x":1e}`, `{"x":tru}`,
		`{"x":nul}`, deep,
	} {
		if _, err := decodeFinalizeRequest([]byte(in)); err == nil {
			t.Errorf("decodeFinalizeRequest accepted %q", in)
		}
	}
	for _, in := range []string{
		`{"key_bits":1.0}`, `{"key_bits":1e3}`, `{"key_bits":"2048"}`, `{"key_bits":9223372036854775808}`,
		`{"hostnames":"a.gov"}`, `{"hostnames":[null]}`, `{"hostnames":[1]}`, `{"hostnames":[0"]}`,
	} {
		if _, err := decodeOrderRequest([]byte(in)); err == nil {
			t.Errorf("decodeOrderRequest accepted %q", in)
		}
	}
	if _, err := decodeOrderResponse([]byte(`{"tokens":{"a.gov":null}}`)); err == nil {
		t.Error("decodeOrderResponse accepted a null token")
	}
}

// checkWire runs one decoder against encoding/json on data, then the
// matching encoder on whatever was accepted.
func checkWire[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func([]byte, *T) []byte) {
	t.Helper()
	got, err := decode(data)
	var want T
	jerr := json.Unmarshal(data, &want)
	if err != nil {
		return
	}
	if jerr != nil {
		t.Fatalf("%T: accepted %q, which encoding/json rejects: %v", got, data, jerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decoded %q to\n%#v\nencoding/json decodes\n%#v", got, data, got, want)
	}
	checkEncode(t, &got, decode, encode)
}

// checkEncode: the encoder emits encoding/json's bytes for v, and both
// decoders read them back to the same value.
func checkEncode[T any](t *testing.T, v *T, decode func([]byte) (T, error), encode func([]byte, *T) []byte) {
	t.Helper()
	enc := encode(nil, v)
	jenc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, jenc) {
		t.Fatalf("%T: encoded\n%s\nencoding/json encodes\n%s", *v, enc, jenc)
	}
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("%T: own encoding %s rejected: %v", *v, enc, err)
	}
	var jagain T
	if err := json.Unmarshal(enc, &jagain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, jagain) {
		t.Fatalf("%T: %s decodes to\n%#v\nencoding/json decodes\n%#v", *v, enc, again, jagain)
	}
}

// FuzzACMEWire: the decoders never panic, accept only what encoding/json
// accepts and decode it to the same value; the encoders emit
// encoding/json's bytes, which both decoders read back equal — also for
// strings built from arbitrary bytes.
func FuzzACMEWire(f *testing.F) {
	for _, v := range wireSamples {
		w := encodeSample(v)
		f.Add(w)
		f.Add(w[:len(w)/2])
	}
	for _, s := range []string{
		`{"order_id":"a\u00e9\ud83d\ude00\n\/\"\\\b\f\r\t"}`,
		`{"order_id":"\ud800"}`, `{"order_id":"\ud800\u0041"}`, `{"order_id":"\udc00\ud800x"}`,
		`{"order_id":"\u0000\u001f\u2028"}`,
		`{"order_id":"a","order_id":"b"}`, `{"ORDER_ID":"x","Order_Id":"y"}`,
		"{\"\u212aey_id\":\"k\",\"hostnameſ\":[\"a\"]}",
		`{"order_\u0069d":"escaped key"}`,
		`{"tokens":{"a":"1"},"tokens":{"b":"2"}}`, `{"tokens":{"a":"1"},"tokens":null,"tokens":{}}`,
		`{"hostnames":["a","b"],"hostnames":["c"]}`, `{"hostnames":null,"key_bits":null,"key_type":null}`,
		`{"hostnames":[]}`, `{"key_bits":-0}`, `{"key_bits":-9223372036854775808}`,
		`{"key_bits":9223372036854775807}`, `{"key_bits":99999999999999999999}`, `{"key_bits":0123}`,
		`{"x":{"y":[1,-2.5e+3,true,false,null,"s",{}]},"order_id":"after unknown"}`,
		`{"x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `}`,
		`{"x":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`,
		`{"error":"e","code":"rateLimited","retry_after":"2020-04-08T00:00:00Z","status":429}`,
		" \t\r\n{ \"order_id\" : \"ws\" } \n",
		"{\"order_id\":\"\xff\xfe\"}", "{\"order_id\":\"\xed\xa0\x80\"}",
		`{"order_id":"` + strings.Repeat("x", 4096) + `"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire(t, data, decodeOrderRequest, appendOrderRequest)
		checkWire(t, data, decodeOrderResponse, appendOrderResponse)
		checkWire(t, data, decodeFinalizeRequest, appendFinalizeRequest)
		checkWire(t, data, decodeProblem, appendProblem)

		s := string(data)
		checkEncode(t, &OrderRequest{Hostnames: []string{s, ""}, KeyType: s, KeyBits: len(s), KeyID: s}, decodeOrderRequest, appendOrderRequest)
		checkEncode(t, &OrderResponse{OrderID: s, Tokens: map[string]string{s: s, "": "x"}}, decodeOrderResponse, appendOrderResponse)
		checkEncode(t, &FinalizeRequest{OrderID: s}, decodeFinalizeRequest, appendFinalizeRequest)
		checkEncode(t, &Problem{Error: s, Code: s, RetryAfter: s}, decodeProblem, appendProblem)
	})
}
