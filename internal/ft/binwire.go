package ft

import "pvmigrate/internal/wirefmt"

// Binary wire-format support (internal/wirefmt): ft owns tag range 64–79.
//
//	64 beat  host zig-zag varint (a heartbeat is one small datagram — the
//	         exact message the decentralized load-dissemination direction
//	         in the ROADMAP needs to stay cheap)
const tagBeat wirefmt.Tag = 64

func init() {
	wirefmt.Register(tagBeat, "ft.beat", beat{}, encodeBeatWire, decodeBeatWire)
}

func encodeBeatWire(dst []byte, v any) ([]byte, error) {
	return wirefmt.AppendInt(dst, v.(beat).host), nil
}

func decodeBeatWire(r *wirefmt.Reader) any { return beat{host: r.Int()} }
