package compress

import "testing"

func TestVByteRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 129, 16383, 16384, 1 << 32, ^uint64(0)}
	var buf []byte
	for _, v := range vals {
		buf = PutVByte(buf, v)
	}
	pos := 0
	for _, want := range vals {
		v, n, err := GetVByte(buf[pos:])
		if err != nil || v != want {
			t.Fatalf("GetVByte = %d, %v; want %d", v, err, want)
		}
		if n != VByteLen(want) {
			t.Fatalf("consumed %d bytes for %d, VByteLen says %d", n, want, VByteLen(want))
		}
		pos += n
	}
	if pos != len(buf) {
		t.Errorf("consumed %d of %d bytes", pos, len(buf))
	}
}

func TestVByteErrors(t *testing.T) {
	if _, _, err := GetVByte(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := GetVByte([]byte{0x01, 0x02}); err == nil {
		t.Error("unterminated code accepted")
	}
	long := make([]byte, 12) // all continuation bytes
	if _, _, err := GetVByte(long); err == nil {
		t.Error("overlong code accepted")
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		SchemeNone: "none", SchemeVByte: "vbyte", SchemeGamma: "gamma",
		SchemeDelta: "delta", SchemeGolomb: "golomb", SchemeRice: "rice",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Errorf("unknown scheme string = %q", Scheme(99).String())
	}
}
