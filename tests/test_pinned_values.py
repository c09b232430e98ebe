"""Solver, sweep, oracle and Monte Carlo results pinned to reference values.

The oracle and Monte Carlo values were recorded from the straightforward
implementation: fresh arrays per step, ``np.mean``/``np.std`` for the
estimates, a ``meshgrid`` oracle grid ahead of the refinement.  The in-place
kernel does the same arithmetic in the same order, and the grid decided none
of the pinned optima, so every pinned field must match with ``==``.  ``d_p_hat_regression`` is not pinned: it now sums with
pairwise reduction instead of a BLAS dot product, which moves its last digits.

The solver and sweep values were recorded from the solve core that tested
the max-privacy endpoint once per branch and set record fields through
``object.__setattr__``; they pin every field of a free, an endpoint and an
interior solve of each setting on three models, a 9-point sweep per
setting and one rate inversion, also with ``==``.  The channel's free and
interior D_C and D_P were re-recorded when the channel solve came to compute
them in units of sigma_x2 (six solve rows and six points of the channel
sweep moved by 1-2 ulp); each pinned channel value lies within 3 ulp of exact
rational evaluation at its alpha.  The compression endpoint's kappa was
re-recorded when its numerator 1 + alpha*rho came to be taken as
(r - rho^2)/r (the (2.5, 0.3, 0.4) row moved by 1 ulp); each pinned one lies
within 1 ulp of exact rational evaluation at alpha = -rho/r.
"""

import math
from fractions import Fraction

import pytest

from privcomm import (
    ChannelSpec,
    EncoderPolicy,
    Setting,
    solve_setting1,
    solve_setting2,
    solve_setting3,
    validate_model,
)
from privcomm.curves import (
    noise_for_rate,
    sweep_privacy_distortion,
    sweep_rate_distortion,
)
from privcomm.montecarlo import SimConfig, simulate_policy
from privcomm.oracle import grid_search, lagrangian_scan

from conftest import exact_channel_dc_dp

CHANNEL = ChannelSpec(1.5, 0.7)

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

#: (model, setting, sigma_n2, target, (alpha, beta, noise_var, kappa, d_c, d_p,
#: constraint_active)) at a free target (half the floor), the endpoint dp_max
#: and an interior target (60 % of the way from the floor to dp_max).
SOLVE = [
    ((1.0, 0.6, 1.0), Setting.SIMPLE, None, 0.32,
     (0.0, 1.0, 0.0, 1.0, 0.0, 0.64, False)),
    ((1.0, 0.6, 1.0), Setting.SIMPLE, None, 1.0,
     (-0.6, 1.0, 0.0, 1.0, 0.36, 1.0, True)),
    ((1.0, 0.6, 1.0), Setting.SIMPLE, None, 0.856,
     (-0.2718787550281616, 1.0, 0.0, 1.1193172990899, 0.06327385716492762, 0.8559999999999999, True)),
    ((1.0, 0.6, 1.0), Setting.COMPRESSION, 0.6, 0.3875,
     (0.0, 1.0, 0.6, 0.625, 0.37499999999999994, 0.7749999999999999, False)),
    ((1.0, 0.6, 1.0), Setting.COMPRESSION, 0.6, 1.0,
     (-0.6, 1.0, 0.6, 0.5161290322580645, 0.6696774193548387, 1.0, True)),
    ((1.0, 0.6, 1.0), Setting.COMPRESSION, 0.6, 0.91,
     (-0.24980382264027695, 1.0, 0.6, 0.6238767039019426, 0.46963136739261024, 0.9099999999999999, True)),
    ((1.0, 0.6, 1.0), Setting.CHANNEL, None, 0.3772727272727273,
     (0.0, 1.224744871391589, 0.0, 0.556702214268904, 0.31818181818181823, 0.7545454545454546, False)),
    ((1.0, 0.6, 1.0), Setting.CHANNEL, None, 1.0,
     (-0.6, 1.5309310892394863, 0.0, 0.44536177141512323, 0.5636363636363637, 1.0, True)),
    ((1.0, 0.6, 1.0), Setting.CHANNEL, None, 0.9018181818181819,
     (-0.2718787550281617, 1.4164215474215296, 0.0, 0.5388020869439604, 0.36132308443063255, 0.9018181818181819, True)),
    ((2.5, 0.3, 0.4), Setting.SIMPLE, None, 0.38750000000000007,
     (0.0, 1.0, 0.0, 1.0, 0.0, 0.7750000000000001, False)),
    ((2.5, 0.3, 0.4), Setting.SIMPLE, None, 1.0,
     (-0.7499999999999999, 1.0, 0.0, 1.0, 0.5624999999999999, 1.0, True)),
    ((2.5, 0.3, 0.4), Setting.SIMPLE, None, 0.91,
     (-0.3122547783003458, 1.0, 0.0, 1.064199284547104, 0.0887277723799723, 0.91, True)),
    ((2.5, 0.3, 0.4), Setting.COMPRESSION, 1.5, 0.4296875,
     (0.0, 1.0, 1.5, 0.625, 0.9375, 0.859375, False)),
    ((2.5, 0.3, 0.4), Setting.COMPRESSION, 1.5, 1.0,
     (-0.7499999999999999, 1.0, 1.5, 0.5636363636363637, 1.4079545454545455, 1.0, True)),
    ((2.5, 0.3, 0.4), Setting.COMPRESSION, 1.5, 0.94375,
     (-0.2973587447434059, 1.0, 1.5, 0.6251347675596532, 1.0765800484336165, 0.9437500000000001, True)),
    ((2.5, 0.3, 0.4), Setting.CHANNEL, None, 0.4232954545454546,
     (0.0, 0.7745966692414834, 0.0, 0.8802234877744128, 0.7954545454545456, 0.8465909090909092, False)),
    ((2.5, 0.3, 0.4), Setting.CHANNEL, None, 1.0,
     (-0.7499999999999999, 0.8798826901281197, 0.0, 0.7748966873287418, 1.1789772727272727, 1.0, True)),
    ((2.5, 0.3, 0.4), Setting.CHANNEL, None, 0.9386363636363637,
     (-0.3122547783003462, 0.8393545907614124, 0.0, 0.8644623253015199, 0.8559507538954361, 0.9386363636363637, True)),
    ((0.4, 1.1, 2.0), Setting.SIMPLE, None, 0.15799999999999997,
     (0.0, 1.0, 0.0, 1.0, 0.0, 0.31599999999999995, False)),
    ((0.4, 1.1, 2.0), Setting.SIMPLE, None, 0.8,
     (-0.55, 1.0, 0.0, 1.0, 0.24200000000000005, 0.8, True)),
    ((0.4, 1.1, 2.0), Setting.SIMPLE, None, 0.6064,
     (-0.2988942658763793, 1.0, 0.0, 1.2880555977525951, 0.05417443111018002, 0.6064, True)),
    ((0.4, 1.1, 2.0), Setting.COMPRESSION, 0.24, 0.24875,
     (0.0, 1.0, 0.24, 0.625, 0.15, 0.49749999999999994, False)),
    ((0.4, 1.1, 2.0), Setting.COMPRESSION, 0.24, 0.8,
     (-0.55, 1.0, 0.24, 0.3969849246231155, 0.33727638190954784, 0.8, True)),
    ((0.4, 1.1, 2.0), Setting.COMPRESSION, 0.24, 0.679,
     (-0.252248237739375, 1.0, 0.24, 0.6163263708950514, 0.22187503765143518, 0.679, True)),
    ((0.4, 1.1, 2.0), Setting.CHANNEL, None, 0.235,
     (0.0, 1.9364916731037085, 0.0, 0.35208939510976517, 0.1272727272727273, 0.47, False)),
    ((0.4, 1.1, 2.0), Setting.CHANNEL, None, 0.8,
     (-0.55, 3.081180112566604, 0.0, 0.22128475353887422, 0.2922727272727273, 0.8, True)),
    ((0.4, 1.1, 2.0), Setting.CHANNEL, None, 0.668,
     (-0.2988942658763793, 2.682573863222702, 0.0, 0.32737951330270515, 0.16420983939330458, 0.668, True)),
]
#: sweep_privacy_distortion(model (1, 0.6, 1), SIMPLE, grid=9).points
SWEEP_SIMPLE = (
    (0.64, 0.0, 0.0, 1.0),
    (0.685, 0.0022647580645817574, -0.05749970567467366, 1.0333869077620454),
    (0.73, 0.009398920695876218, -0.11346908755237006, 1.0629695932063465),
    (0.775, 0.02212096587623841, -0.1689472751357402, 1.0881867454091887),
    (0.8200000000000001, 0.04158004392386792, -0.22518297146734545, 1.1081405906844781),
    (0.865, 0.06974537040303788, -0.28395507745957405, 1.1212926793726266),
    (0.91, 0.11046550999191966, -0.3484116391867396, 1.1246363203188128),
    (0.9550000000000001, 0.17358804056037244, -0.42634209472981893, 1.110478093312209),
    (1.0, 0.36, -0.6, 1.0),
)
#: sweep_privacy_distortion(model (0.4, 1.1, 2), CHANNEL, CHANNEL, grid=9).points
SWEEP_CHANNEL = (
    (0.47, 0.1272727272727273, 0.0, 0.35208939510976517),
    (0.51125, 0.12886134608466154, -0.07866708742606193, 0.3510624484173582),
    (0.5525, 0.13353390842334642, -0.14496165110791476, 0.348024353625807),
    (0.59375, 0.1413148336673095, -0.2034629317107729, 0.3429054775223915),
    (0.635, 0.15246648125930698, -0.2573327454876455, 0.33543290803262593),
    (0.67625, 0.1676047438342904, -0.3092579176751563, 0.32501416484216467),
    (0.7175, 0.1880730543699771, -0.36239632223318563, 0.31037143849237897),
    (0.75875, 0.21744107584434894, -0.422886362085412, 0.2880648002822621),
    (0.8, 0.2922727272727273, -0.55, 0.22128475353887422),
)
#: sweep_rate_distortion(model (2.5, 0.3, 0.4), 0.95, RATE_NOISES).points
RATE_NOISES = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
SWEEP_RATE = (
    (0.05, 1.8669515677439457, 0.22826559638016375, 0.9500000000000002, -0.4265726307841359),
    (0.1, 1.5328009767572384, 0.2778449840789278, 0.9500000000000002, -0.4225296317141605),
    (0.25, 1.1101734973785369, 0.41334888674458226, 0.9500000000000002, -0.41068955373085164),
    (0.5, 0.8177066994186806, 0.6031118090513119, 0.9500000000000001, -0.39182480029431027),
    (1.0, 0.5644260869289139, 0.8882807419771259, 0.9500000000000002, -0.3568012421714751),
    (2.0, 0.36434605898967837, 1.2469657773895682, 0.9500000000000001, -0.2947672659998367),
    (4.0, 0.2231435513142098, 1.6113070976156494, 0.9500000000000002, -0.19098300562505222),
    (8.0, 0.13408361634408247, 1.912082662613129, 0.9500000000000002, -0.026794416649405073),
    (16.0, 0.07259100492224894, 2.162162162162162, 0.9695945945945947, 0.0),
)
#: noise_for_rate(model (2.5, 0.3, 0.4), 0.95, 0.3)
NOISE_FOR_RATE = 2.6504321675226534


@pytest.mark.parametrize("model, setting, target, sigma_n2, expected", GRID)
def test_grid_search_pinned(model, setting, target, sigma_n2, expected):
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


@pytest.mark.parametrize("model, setting, sigma_n2, target, expected", SOLVE)
def test_solve_pinned(model, setting, sigma_n2, target, expected):
    m = validate_model(*model)
    if setting is Setting.SIMPLE:
        sol = solve_setting1(m, target)
    elif setting is Setting.COMPRESSION:
        sol = solve_setting2(m, target, sigma_n2)
    else:
        sol = solve_setting3(m, target, CHANNEL)
    p = sol.policy
    assert (p.alpha, p.beta, p.noise_var, sol.kappa, sol.d_c, sol.d_p,
            sol.constraint_active) == expected


def test_pinned_channel_values_against_exact_evaluation():
    # each pinned channel D_C and D_P lies within 3 ulp of exact evaluation at its alpha
    for model, setting, _, _, (alpha, _, _, _, d_c, d_p, _) in SOLVE:
        if setting is Setting.CHANNEL:
            exact = exact_channel_dc_dp(validate_model(*model), alpha, CHANNEL)
            for value, reference in zip((d_c, d_p), exact):
                assert abs(value - reference) <= 3 * math.ulp(reference)
    model = validate_model(0.4, 1.1, 2.0)
    for _, d_c, alpha, _ in SWEEP_CHANNEL:  # its d_p column holds the targets
        exact_dc, _ = exact_channel_dc_dp(model, alpha, CHANNEL)
        assert abs(d_c - exact_dc) <= 3 * math.ulp(exact_dc)


def test_pinned_compression_endpoints_against_exact_evaluation():
    # each pinned compression endpoint's kappa lies within 1 ulp of exact evaluation of
    # (1 + alpha*rho)/(1 + 2*alpha*rho + alpha^2*r + n) at alpha = -rho/r
    endpoints = [(model, sigma_n2, kappa)
                 for model, setting, sigma_n2, target, (_, _, _, kappa, _, d_p, _) in SOLVE
                 if setting is Setting.COMPRESSION and d_p == target == model[0] * model[2]]
    assert len(endpoints) == 3
    for (s2, rho, r), sigma_n2, kappa in endpoints:
        rho, r, n = Fraction(rho), Fraction(r), Fraction(sigma_n2 / s2)  # n as the core rounds it
        alpha = -rho / r
        exact = (1 + alpha * rho) / (1 + 2 * alpha * rho + alpha * alpha * r + n)
        assert abs(Fraction(kappa) - exact) <= math.ulp(kappa)


def test_sweeps_and_rate_inversion_pinned():
    simple = sweep_privacy_distortion(validate_model(1.0, 0.6, 1.0), Setting.SIMPLE, grid=9)
    channel = sweep_privacy_distortion(validate_model(0.4, 1.1, 2.0), Setting.CHANNEL,
                                       CHANNEL, grid=9)
    compression = validate_model(2.5, 0.3, 0.4)
    rate = sweep_rate_distortion(compression, 0.95, RATE_NOISES)
    assert simple.points == SWEEP_SIMPLE
    assert channel.points == SWEEP_CHANNEL
    assert rate.points == SWEEP_RATE
    assert noise_for_rate(compression, 0.95, 0.3) == NOISE_FOR_RATE
