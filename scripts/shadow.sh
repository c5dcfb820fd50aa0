#!/bin/sh
# Tier-1 in a container without a registry: copy the tree to a shadow
# directory, point every crates.io dependency at a stand-in, and run the
# test binaries that build under them: the root package's and painter-core's
# integration tests, and the unit tests of painter-core, painter-eval,
# painter-bgp and painter-chaos.
# `proptest!` bodies compile away, so the test files that mention proptest
# are left out (ROADMAP item 4(b)).
#   scripts/shadow.sh [shadow-dir] [extra cargo-test args, e.g. --features obs-off]
set -eu
cd "$(dirname "$0")/.."
shadow=${1:-/root/scratch/shadow}
[ $# -gt 0 ] && shift
mkdir -p "$shadow"
git ls-files -co --exclude-standard | tar -c -T - | tar -x -C "$shadow" # keeps target/
cd "$shadow"
for stub in proptest:1.9.9 criterion:0.5.9 serde_json:1.9.9; do
    dir=stubs/${stub%:*}
    mkdir -p "$dir/src"
    printf '[package]\nname = "%s"\nversion = "%s"\nedition = "2021"\n' "${stub%:*}" "${stub#*:}" >"$dir/Cargo.toml"
    : >"$dir/src/lib.rs"
done
cat >stubs/proptest/src/lib.rs <<'EOF'
pub mod prelude { pub use crate::proptest; }
#[macro_export]
macro_rules! proptest { ($($body:tt)*) => {}; }
EOF
sed -i 's|^members = \["crates/\*"\]|&\nexclude = ["perf", "stubs"]|' Cargo.toml
{
    echo '[patch.crates-io]'
    for stub in rand rayon serde bytes parking_lot crossbeam; do
        echo "$stub = { path = \"perf/stubs/$stub\" }"
    done
    for stub in proptest criterion serde_json; do
        echo "$stub = { path = \"stubs/$stub\" }"
    done
} >>Cargo.toml
# The `--test` flags for the files under $1 that do not mention proptest.
plain_tests() {
    for t in "$1"/*.rs; do
        grep -q 'proptest' "$t" || printf ' --test %s' "$(basename "$t" .rs)"
    done
}
status=0
# shellcheck disable=SC2046
cargo test --offline --release --no-fail-fast -p painter $(plain_tests tests) "$@" || status=$?
# shellcheck disable=SC2046
cargo test --offline --release --no-fail-fast -p painter-core $(plain_tests crates/core/tests) "$@" || status=$?
cargo test --offline --release --no-fail-fast -p painter-core -p painter-eval -p painter-bgp -p painter-chaos --lib "$@" || status=$?
# Debug too: the `debug_assert!` precondition tests exist only there.
cargo test --offline --no-fail-fast -p painter-core --lib "$@" || status=$?
exit $status
