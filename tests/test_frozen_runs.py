"""Short runs of every preset and of two benchmark configs keep their CSV bytes.

Each run reaches at least two checkpoints, and each config that adapts its
levels refreshes them once before its last row, so a change to the
quantizer, the bit count, the wire check, a level refresh or the solver
loop that moves any printed number fails here.  One run places its levels
on truncated normals fit to the step CDFs (``estimator = truncated-normal``),
so a change to that fit fails here too.  Only the CSV is pinned: it
prints 12 significant digits, while the JSON's full-precision floats move
with the BLAS thread count at d = 1000.
"""

import hashlib

import pytest

from quantvi import runner

_REFRESH_D200 = {"problem": {"d": "200"}, "run": {"T": "502"},
                 "quantization": {"M": "4", "grid": "2048", "update_period": "500"}}
_EG_D1000 = {"problem": {"d": "1000", "K": "4"}, "run": {"T": "3", "algorithm": "extragradient"},
             "quantization": {"M": "4", "budgets": "2,3,5,7", "protocol": "alternating",
                              "scheme": "elias", "update_period": "0"}}

# (preset, overrides, sha256 of the run's CSV text).  The presets refresh
# their levels at t = 1001, refresh-d200 at t = 501; eg-d1000 does not adapt.
_FROZEN_CSV = {
    "bilinear-abs": ("bilinear-abs", {"run": {"T": "1002"}},
                     "c98b4855b019fb03ceef46f72166997a2994cca4619cba40e52f71b61fdca47d"),
    "cocoercive-rel": ("cocoercive-rel", {"run": {"T": "1002"}},
                       "10fab792ccb1f8bcda474ce3fe062c0e5a8de63b72fa54db748e98b0a0d83575"),
    "bilinear-abs-truncnorm": ("bilinear-abs", {"run": {"T": "1002"},
                                                "quantization": {"estimator": "truncated-normal"}},
                               "f46c0f8d3fe59f081464de27ad2864857ef39c67c38b6d157f0330a9e40d5512"),
    "bilinear-alt": ("bilinear-alt", {"run": {"T": "1002"}},
                     "6c9c1232bd7ccdb55b693469ad886d327ebf292c1e1997dee51a3c335396dcef"),
    "refresh-d200": ("cocoercive-rel", _REFRESH_D200,
                     "3a54287f792d02ff6ebacb04fe4f167951d417181311b57d8b8eed8504ddb9ea"),
    "eg-d1000": ("bilinear-abs", _EG_D1000,
                 "0d8873e230c646338ebaa21040be3228aa36e7179dd2433de47100eb8e85562f"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_CSV))
def test_run_csv_is_frozen(name):
    preset, overrides, digest = _FROZEN_CSV[name]
    cfg = runner.preset_config(preset, overrides)
    metrics, _ = runner.execute(cfg)
    assert len(metrics.rows) >= 3
    # A refresh shows as a new eps_q in the last row.
    refreshed = metrics.rows[-1][6] != metrics.rows[0][6]
    assert refreshed == (cfg.update_period > 0)
    text = runner._csv_text(metrics.rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
