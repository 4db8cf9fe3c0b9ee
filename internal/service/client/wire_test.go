package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/service"
)

// TestWireBytesMatchEncodingJSON: what the client sends is exactly
// json.Marshal of the request, and what it returns is exactly
// json.Unmarshal of the body the shard wrote.
func TestWireBytesMatchEncodingJSON(t *testing.T) {
	svc := service.New(service.Config{})
	var sent, answered [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		sent = append(sent, body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, r)
		answered = append(answered, rec.Body.Bytes())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	cl := New(ts.URL, ts.Client())

	allow := true
	for i, mk := range []func() (*service.Request, error){
		func() (*service.Request, error) {
			return service.NewRequest(testSpider(), service.OpMinMakespan, 7, 0)
		},
		func() (*service.Request, error) {
			r, err := service.NewRequest(testSpider(), service.OpScheduleWithin, 5, 30)
			if r != nil {
				r.IncludeSchedule, r.TimeoutMs, r.AllowDegraded = true, 500, &allow
			}
			return r, err
		},
	} {
		req, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sent[i], want) {
			t.Errorf("request %d: sent\n%s\nwant json.Marshal\n%s", i, sent[i], want)
		}
		var ref service.Response
		if err := json.Unmarshal(answered[i], &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*resp, ref) {
			t.Errorf("response %d: decoded %+v, want json.Unmarshal's %+v", i, *resp, ref)
		}
	}
}
