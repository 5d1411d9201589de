package campaign

import (
	"context"
	"errors"
	"testing"

	"marchgen/internal/core"
	"marchgen/internal/march"
)

// preEvaluateWordRecord is the store record of a transparent-axis unit
// whose test has no transparent variant, captured before the word axis
// moved onto core.EvaluateWord: the bit-background word section stays and
// the error carries the word package's own message.
const preEvaluateWordRecord = `{"unit":{"seq":0,"list":"list2","profile":"standard","order":"free","size":4,"width":4,"transparent":true},"test":"⇕(w0) ⇑(r0,w1)","length":3,"coverage":{"detected":0,"total":0},"simulations":0,"bist":{"cells":1024,"cycles":3072,"elements":2,"order_switches":0,"single_order":true},"word":{"width":4,"backgrounds":3,"faults":384,"detected":150},"error":"word: transparent transform: test exits at 1, content not restored"}`

func wordAxisUnit() (Unit, core.Result) {
	u := Unit{List: "list2", Profile: "standard", Order: "free", Size: 4, Width: 4, Transparent: true}
	return u, core.Result{Test: march.MustParse("T", "c(w0) u(r0,w1)")}
}

func TestWordAxisTransparentErrorRecord(t *testing.T) {
	u, gen := wordAxisUnit()
	res, err := buildResult(context.Background(), u, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != preEvaluateWordRecord {
		t.Fatalf("record:\n  got:  %s\n  want: %s", b, preEvaluateWordRecord)
	}
}

// TestWordAxisCancelled: a cancelled context aborts the word evaluation
// with the context's error instead of recording a unit result.
func TestWordAxisCancelled(t *testing.T) {
	u, gen := wordAxisUnit()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := buildResult(ctx, u, gen, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("buildResult under a cancelled context: err = %v, want context.Canceled", err)
	}
}
