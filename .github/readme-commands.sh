#!/usr/bin/env bash
# Run the README's example commands through the `seqsub` console script
# (seqsub.cli:entry), which the tests and the benchmark never start, on the
# instance files in the given directory.  allocate and rewrite also run
# without --oracle, the path that never imports seqsub.oracle.
#
#     .github/readme-commands.sh INSTANCES_DIR
set -euo pipefail
dir=${1:?usage: readme-commands.sh INSTANCES_DIR}
for f in "$dir"/*.json; do seqsub allocate --instance "$f"; done
seqsub rewrite --instance "$dir/rewrite_two_paths.json"
seqsub allocate --instance "$dir/two_ads_two_types.json" --oracle
seqsub rewrite --instance "$dir/rewrite_two_paths.json" --oracle
seqsub simulate --instance "$dir/two_ads_two_types.json" --trials 1000 --seed 42
seqsub verify --instance "$dir/two_ads_two_types.json" \
    --checks mono,submod,deriv,lemma1 --samples 500 --seed 7
seqsub verify --instance "$dir/rewrite_two_paths.json" \
    --checks mono,submod,deriv,lemma1 --samples 500 --seed 7
