"""Oracle and Monte Carlo results pinned to the values of the reference kernel.

The values were recorded from the straightforward implementation: fresh
arrays per step, ``np.mean``/``np.std`` for the estimates, a ``meshgrid``
oracle grid.  The in-place kernel and the broadcast grid do the same
arithmetic in the same order, so every pinned field must match with ``==``.
``d_p_hat_regression`` is not pinned: it now sums with pairwise reduction
instead of a BLAS dot product, which moves its last digits.
"""

import pytest

from privcomm import (
    ChannelSpec,
    EncoderPolicy,
    Setting,
    SimConfig,
    grid_search,
    lagrangian_scan,
    simulate_policy,
    validate_model,
)
from privcomm import oracle

CHANNEL = ChannelSpec(1.5, 0.7)
GRID_SIZE = 201

GRID = [
    ((1.0, 0.6, 1.0), Setting.SIMPLE, 0.856, None,
     (-0.27187879085540767, 0.0, 0.06327387583068911, 0.8560000269181568)),
    ((1.0, 0.6, 1.0), Setting.COMPRESSION, 0.892, 0.6,
     (-0.21252808570861814, 0.6, 0.4524077683786312, 0.8920000287358901)),
    ((1.0, 0.6, 1.0), Setting.CHANNEL, 0.928, None,
     (-0.3251118421554565, 0.0, 0.3826382040862669, 0.9280000059127205)),
    ((2.5, 0.3, 0.4), Setting.SIMPLE, 0.9100000000000001, None,
     (-0.3122548162937164, 0.0, 0.08872779535792322, 0.9100000142167488)),
    ((2.5, 0.3, 0.4), Setting.COMPRESSION, 0.9325, 1.5,
     (-0.25117439031600947, 1.5, 1.050431533743124, 0.9325000224810676)),
    ((2.5, 0.3, 0.4), Setting.CHANNEL, 0.9550000000000001, None,
     (-0.37998497486114496, 0.0, 0.8874038198713721, 0.9550000049348639)),
    ((0.4, 1.1, 2.0), Setting.SIMPLE, 0.6064, None,
     (-0.2988942861557007, 0.0, 0.05417444057897744, 0.6064000237028924)),
    ((0.4, 1.1, 2.0), Setting.COMPRESSION, 0.6548, 0.24,
     (-0.2178567290306091, 0.24, 0.20976457401627427, 0.6548000312191196)),
    ((0.4, 1.1, 2.0), Setting.CHANNEL, 0.7032, None,
     (-0.34357362985610956, 0.0, 0.1802331843312631, 0.7032000061281027)),
]
SCAN = [
    ((1.0, 0.6, 1.0), [
        (0.0, 2.2548451368428527e-08, 3.7024338374610336e-08, 3.7024336327395925e-08, 0.639999996011551),
        (1.1111111111111112, -0.35075577189943263, 3.7024338374610336e-08, 0.11214419630735546, 0.9115216139979424),
        (2.7777777777777777, -0.4773694367302336, 3.7024338374610336e-08, 0.22264995715351749, 0.9770421741295658),
    ]),
    ((2.5, 0.3, 0.4), [
        (0.0, 3.281793945985851e-08, 9.256084593652584e-08, 9.256084152161649e-08, 0.7749999930701343),
        (4.444444444444445, -0.5078550249931052, 9.256084593652584e-08, 0.2503408179794143, 0.9706261299828189),
        (11.11111111111111, -0.6344230872391438, 9.256084593652584e-08, 0.39973678335148644, 0.9931527451133416),
    ]),
]
SIM = [
    ((1.0, 0.6, 1.0), Setting.SIMPLE, (-0.25, 0.0, 1.0), 1.1, 3,
     (0.052297764287655465, 0.834249235409382, None, 1.3283269942788403, 0.0005129673911487624, 0.00819300972028358)),
    ((2.5, 0.3, 0.4), Setting.SIMPLE, (-0.4, 0.3, 1.0), 0.7, 4,
     (0.5709118878723848, 0.9424195259724891, None, 1.3892861597602113, 0.005691767987015311, 0.009244514505760616)),
    ((1.0, 0.6, 1.0), Setting.COMPRESSION, (-0.2, 0.5, 1.0), 0.6, 5,
     (0.4165828079724482, 0.874046426266336, None, 1.3516276404849155, 0.004145240380555375, 0.008770031112056277)),
    ((0.4, 1.1, 2.0), Setting.CHANNEL, (-0.3, 0.0, 1.7), 0.5, 6,
     (0.27066680728935727, 0.7068902742148743, 0.6133861565441252, 1.2454986210744223, 0.002685689914770866, 0.007068935299722748)),
    ((2.5, 0.3, 0.4), Setting.CHANNEL, (-0.5, 0.2, 0.8), 0.9, 7,
     (1.1512362442280935, 0.9835945182190395, 1.376837382780427, 1.4106677622862924, 0.011588311631218037, 0.009890999219866001)),
]


@pytest.mark.parametrize("model, setting, target, sigma_n2, expected", GRID)
def test_grid_search_pinned(model, setting, target, sigma_n2, expected, monkeypatch):
    monkeypatch.setattr(oracle, "GRID", GRID_SIZE)
    channel = CHANNEL if setting is Setting.CHANNEL else None
    opt = grid_search(validate_model(*model), setting, channel, target, sigma_n2)
    assert (opt.alpha, opt.noise_var, opt.d_c, opt.d_p) == expected


@pytest.mark.parametrize("model, expected", SCAN)
def test_lagrangian_scan_pinned(model, expected):
    lams = [row[0] for row in expected]
    points = lagrangian_scan(validate_model(*model), lams)
    assert [(p.lam, p.alpha, p.noise_var, p.d_c, p.d_p) for p in points] == expected


@pytest.mark.parametrize("model, setting, policy, gain, seed, expected", SIM)
def test_simulate_policy_pinned(model, setting, policy, gain, seed, expected):
    alpha, noise_var, beta = policy
    channel = CHANNEL if setting is Setting.CHANNEL else None
    res = simulate_policy(
        validate_model(*model), EncoderPolicy(alpha=alpha, noise_var=noise_var, beta=beta),
        channel, gain, SimConfig(20_000, seed, setting),
    )
    assert (res.d_c_hat, res.d_p_hat, res.power_hat, res.entropy_hat, res.stderr_dc,
            res.stderr_dp) == expected
