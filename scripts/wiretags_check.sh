#!/usr/bin/env sh
# Fails when the wire registries have drifted from the committed
# wiretags.lock shape pin (or violate the tag-band/golden-coverage rules),
# or when encoding/gob has crept back in beside wirefmt.
# Run from the repository root; CI runs it as its own named step so a wire
# drift is never buried inside a generic lint failure.
set -u

# One way to encode: wirefmt is the only wire encoding, so nothing outside
# internal/lint (whose noalloc denylist names the package) may import gob.
gob=$(grep -rl --include='*.go' '"encoding/gob"' . | grep -v '^\./internal/lint/')
if [ -n "$gob" ]; then
    echo "wiretags: encoding/gob is retired — register the type with wirefmt instead:" >&2
    echo "$gob" >&2
    exit 1
fi

out=$(go run ./cmd/pvmlint -analyzers wiretag ./... 2>&1)
status=$?
if [ "$status" -eq 0 ]; then
    echo "wiretags: registries match wiretags.lock"
    exit 0
fi

echo "$out"
cat >&2 <<'EOF'

wiretags: the wire registries no longer match the committed wiretags.lock.

If this shape change is intentional, bump the wire version: increment the
format version byte in internal/wirefmt, re-golden TestGoldenWireBytes,
then regenerate and commit the lock alongside the code change:

    go run ./cmd/pvmlint -write-wiretags

If it is not intentional, you have silently re-encoded every peer's frames
(a reordered struct field changes the bytes without failing any test) —
revert the shape change.
EOF
exit "$status"
