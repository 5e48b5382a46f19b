package resilience

import "testing"

func TestSafeContainsPanics(t *testing.T) {
	if err := Safe(func() error { panic("boom") }); err == nil {
		t.Fatal("Safe let a panic escape as nil")
	}
	if err := Safe(func() error { return nil }); err != nil {
		t.Fatalf("Safe invented an error: %v", err)
	}
	v, err := SafeValue(func() (int, error) { return 3, nil })
	if v != 3 || err != nil {
		t.Fatalf("SafeValue = (%d, %v)", v, err)
	}
	if _, err := SafeValue(func() (int, error) { panic("boom") }); err == nil {
		t.Fatal("SafeValue let a panic escape")
	}
}
