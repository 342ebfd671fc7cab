"""Non-finite, negative and mis-shaped inputs raise the package's own
errors at once, instead of a NaN result, a library error or a long
iteration."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from infocoupling import (
    BlockCodeConfig,
    ChannelMatrix,
    DiagonalInstance,
    Distribution,
    Perturbation,
    SearchBudget,
    WeightedVector,
    ace_correlation,
    antipodal_pair_ensemble,
    apply_perturbation,
    brute_p2p,
    diagonal_maxmin,
    greedy_layer,
    instances,
    kron,
    lift_dtm,
    plan_ternary_two_layer,
    product_form_projector,
    s_ratio_search,
    simulate_layered,
    solve_broadcast,
    solve_p2p,
    split_rate_region,
    superposition_information,
    weighted_inner,
)
from infocoupling.cli import EXIT_OK, EXIT_PARSE, main
from infocoupling.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InfeasibleError,
    InfoCouplingError,
    InputMismatchError,
    InvalidDistributionError,
    ResolutionError,
)

BSC = str(Path(__file__).resolve().parents[1] / "specs" / "bsc01.json")
BAD_SIZES = [math.nan, math.inf, -math.inf, -0.1]


class TestEpsilon:
    @pytest.mark.parametrize("eps", BAD_SIZES)
    def test_solvers_reject(self, eps, ternary_dtm, windmill_dtms):
        with pytest.raises(InvalidDistributionError, match="epsilon"):
            solve_p2p(ternary_dtm, eps)
        with pytest.raises(InvalidDistributionError, match="epsilon"):
            solve_broadcast(windmill_dtms, epsilon=eps)
        with pytest.raises(InvalidDistributionError, match="epsilon"):
            antipodal_pair_ensemble(ternary_dtm.right_vector(1), ternary_dtm.input, eps)

    @pytest.mark.parametrize("eps", BAD_SIZES)
    def test_perturbation_scale_rejected(self, eps):
        with pytest.raises(InvalidDistributionError, match="scale"):
            Perturbation(Distribution([0.5, 0.5]), np.array([0.1, -0.1]), eps)

    def test_zero_is_valid(self, ternary_dtm):
        assert solve_p2p(ternary_dtm, 0.0).rate == 0.0

    @pytest.mark.parametrize("text", ["nan", "inf", "-0.01", "x"])
    def test_cli_parse_error(self, text, capsys):
        argv = ["couple", "--mode", "p2p", BSC, "--epsilon", text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert "--epsilon" in capsys.readouterr().err

    def test_cli_zero_accepted(self, capsys):
        assert main(["couple", "--mode", "p2p", BSC, "--epsilon", "0"]) == EXIT_OK


class TestCountOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "--seed", "-1"], "--seed"),
            (["layered", "--eta", "0.2", "--gamma", "0.1", "--simulate", "--seed", "-1"], "--seed"),
            (["verify", "--budget", "-5"], "--budget"),
            (["verify", "--budget", "0"], "--budget"),
        ],
    )
    def test_cli_parse_error(self, argv, option, capsys):
        # a negative seed was numpy's ValueError; a budget of -5 ran the default workload
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_PARSE
        assert "Traceback" not in err
        # argparse's usage block, then one error line
        message = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
        assert len(message) == 1 and f"argument {option}:" in message[0]

    def test_cli_zero_seed_accepted(self, capsys):
        assert main(["verify", "--suite", "tensor", "--seed", "0", "--budget", "1"]) == EXIT_OK


class TestGridOracles:
    @pytest.mark.parametrize("eps", BAD_SIZES + [0.0])
    def test_brute_p2p_epsilon(self, eps, ternary_channel, ternary_point):
        # zero gave best_ratio = -inf; NaN and inf read as a resolution problem
        with pytest.raises(InvalidDistributionError, match="epsilon"):
            brute_p2p(ternary_channel, ternary_point, eps, SearchBudget(grid_resolution=16))

    @pytest.mark.parametrize("point", [[0.5, 0.5], [0.25] * 4])
    def test_operating_point_size_mismatch(self, point, ternary_channel):
        px = Distribution(point)
        with pytest.raises(DimensionMismatchError):
            brute_p2p(ternary_channel, px, 1e-3, SearchBudget(grid_resolution=16))
        with pytest.raises(DimensionMismatchError):
            s_ratio_search(ternary_channel, px, SearchBudget(grid_resolution=16))

    @pytest.mark.parametrize("resolution", [24.5, math.nan, math.inf, "24", None])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ResolutionError):
            SearchBudget(grid_resolution=resolution)


class TestDiagonalMaxMin:
    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_target_infeasible(self, level):
        inst = DiagonalInstance((np.array([0.3, 0.9]), np.array([0.8, 0.2])))
        with pytest.raises(InfeasibleError):
            diagonal_maxmin(inst, target_levels=[level])

    @pytest.mark.parametrize("thetas", [([],), ([], [])])
    def test_empty_diagonals_rejected(self, thetas):
        with pytest.raises(DimensionMismatchError):
            DiagonalInstance(thetas)

    @pytest.mark.parametrize("entry", [1e200, 1.4e154])
    def test_entries_with_overflowing_squares_rejected(self, entry):
        # 1e200 passed validation and overflowed in t**2
        with pytest.raises(InfeasibleError):
            DiagonalInstance((np.array([entry, 1.0]), np.array([0.5, 0.5])))
        assert diagonal_maxmin(DiagonalInstance((np.array([1e154, 1.0]),))).value == pytest.approx(1e308)


class TestOracleShapes:
    @pytest.mark.parametrize(
        "joint", [[[0.25, math.nan], [0.25, 0.25]], [[0.25, math.inf], [0.25, 0.25]], [[math.nan] * 2] * 2]
    )
    def test_ace_rejects_non_finite_joint(self, joint):
        # a NaN joint used to run the whole iteration budget first
        with pytest.raises(DimensionMismatchError):
            ace_correlation(np.array(joint))

    @pytest.mark.parametrize("joint", [[[0.6, -0.1], [0.2, 0.3]], [[6.0, 1.0], [2.0, 3.0]]])
    def test_ace_rejects_negative_or_unnormalized_joint(self, joint):
        # these used to come back as correlations of 1.0 and 11.0
        with pytest.raises(InvalidDistributionError):
            ace_correlation(np.array(joint))

    @pytest.mark.parametrize("letters", [2.5, 0, "2"])
    def test_lift_letters_must_be_a_count(self, letters, ternary_dtm):
        # 2.5 letters used to construct, then leak a TypeError from .matrix
        with pytest.raises(DimensionMismatchError):
            lift_dtm(ternary_dtm, letters)

    def test_superposition_short_direction_table(self):
        base = Distribution([0.5, 0.5])
        law = np.array([0.25, 0.25, 0.5])
        with pytest.raises(DimensionMismatchError):
            superposition_information(base, [(law, np.array([[0.1, -0.1], [-0.1, 0.1]]), 0.1)])

    def test_superposition_wrong_alphabet(self):
        base = Distribution([0.5, 0.5])
        dirs = np.array([[0.1, -0.1, 0.0], [-0.1, 0.1, 0.0]])
        with pytest.raises(DimensionMismatchError):
            superposition_information(base, [(np.array([0.5, 0.5]), dirs, 0.1)])


class TestNanEscapes:
    @pytest.mark.parametrize(
        "split", [(math.nan, 0.1, 0.1), (0.1, math.nan, 0.1), (0.1, 0.1, math.inf), (0.1, -math.inf, 0.1)]
    )
    def test_split_components(self, split, ternary_dtm):
        # a NaN or inf component came back as a NaN or inf rate
        with pytest.raises(InputMismatchError, match="finite and non-negative"):
            split_rate_region(ternary_dtm, ternary_dtm, [split])

    @pytest.mark.parametrize("eps", BAD_SIZES + [-0.5])
    def test_layer_epsilon(self, eps, ternary_channel, ternary_point):
        # NaN gave rate = nan; negative sizes were accepted
        with pytest.raises(InvalidDistributionError, match="epsilon"):
            greedy_layer(ternary_channel, ternary_point, eps)

    @pytest.mark.parametrize("law", [[math.nan, 0.5], [0.5, 0.6], [1.5, -0.5]])
    def test_superposition_law(self, law):
        # a NaN law gave nan, an unnormalized one a number
        dirs = np.array([[0.1, -0.1], [-0.1, 0.1]])
        with pytest.raises(InvalidDistributionError):
            superposition_information(Distribution([0.5, 0.5]), [(np.array(law), dirs, 0.1)])


class TestBlockCodeIntegers:
    @pytest.mark.parametrize(
        "sizes",
        [
            dict(n1=400.5, k1=5),
            dict(n1=400, k1=2.0),
            dict(n1=400, k1=5, trials=1.5),
            dict(n1=400, k1=5, n2=25.0, k2=16),
            dict(n1=400, k1="5"),
        ],
    )
    def test_non_integers_rejected(self, sizes):
        # these reached simulate_layered, which leaked a TypeError
        with pytest.raises(ConfigurationError, match="integers"):
            BlockCodeConfig(**sizes)

    @pytest.mark.parametrize("seed", [-1, 0.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy's default_rng raised a ValueError or TypeError inside simulate_layered
        with pytest.raises(ConfigurationError, match="seed"):
            BlockCodeConfig(n1=400, k1=5, seed=seed)

    def test_numpy_integers_accepted(self, ternary_channel):
        cfg = BlockCodeConfig(
            n1=np.int64(40), k1=np.int32(3), n2=np.int64(5), k2=np.int16(8), trials=np.int64(2), seed=1
        )
        report = simulate_layered(plan_ternary_two_layer(0.2, 0.1), ternary_channel, cfg)
        assert report.per_layer_bits[0] == 6


class TestOneSymbolAlphabet:
    def test_grid_oracles_name_the_missing_direction(self):
        w, px = ChannelMatrix([[0.3], [0.7]]), Distribution([1.0])
        with pytest.raises(DimensionMismatchError, match="one-symbol alphabet has no perturbation direction"):
            brute_p2p(w, px, 1e-3, SearchBudget(grid_resolution=16))
        with pytest.raises(DimensionMismatchError, match="one-symbol alphabet has no perturbation direction"):
            s_ratio_search(w, px, SearchBudget(grid_resolution=16))

    def test_random_direction_needs_a_second_symbol(self):
        # a one-symbol base leaked an IndexError
        with pytest.raises(DimensionMismatchError, match="one-symbol base"):
            instances.random_unit_direction(np.random.default_rng(0), Distribution([1.0]))


class TestBoundaryEscapes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_direction(self, bad, ternary_point):
        # a NaN direction constructed, and local_kl then returned nan
        with pytest.raises(InvalidDistributionError):
            Perturbation(ternary_point, [bad, 0.0, 0.0], 0.1)
        with pytest.raises(InvalidDistributionError):
            WeightedVector([bad, 0.0, 0.0], ternary_point)

    @pytest.mark.parametrize("size", [0, 1])
    def test_product_form_needs_a_letter(self, size, ternary_dtm):
        # a length-1 vector leaked numpy's ValueError from an empty stack
        with pytest.raises(DimensionMismatchError):
            product_form_projector(np.ones(size), ternary_dtm.right_vector(0))

    @pytest.mark.parametrize("argument", ["psi", "base_v0"])
    def test_product_form_rejects_nan(self, argument, ternary_dtm):
        # a NaN psi gave all-NaN components; a NaN base_v0 leaked LinAlgError
        v0 = ternary_dtm.right_vector(0)
        args = {"psi": np.kron(v0, v0), "base_v0": v0.copy()}
        args[argument][1] = math.nan
        with pytest.raises(InvalidDistributionError):
            product_form_projector(args["psi"], args["base_v0"])

    @pytest.mark.parametrize("i", [3, 7, 1.0, "1"])
    def test_singular_index_out_of_range(self, i, ternary_dtm):
        # 7 on a 3-symbol input leaked an IndexError
        with pytest.raises(DimensionMismatchError, match="singular index"):
            ternary_dtm.right_vector(i)
        with pytest.raises(DimensionMismatchError, match="singular index"):
            ternary_dtm.left_vector(i)

    def test_singular_index_accepts_numpy_integers(self, ternary_dtm):
        assert np.array_equal(ternary_dtm.right_vector(np.int64(2)), ternary_dtm.right_vector(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("which", [0, 1])
    def test_weighted_inner_rejects_nan(self, which, ternary_point):
        # a NaN direction gave nan
        dirs = [np.array([0.1, -0.1, 0.0]), np.array([0.2, 0.0, -0.2])]
        dirs[which][0] = math.nan
        with pytest.raises(InvalidDistributionError, match="finite"):
            weighted_inner(*dirs, ternary_point)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("which", [0, 1])
    def test_kron_rejects_nan(self, which):
        # a NaN factor gave a NaN array
        factors = [np.eye(2), np.ones((2, 3))]
        factors[which][0, 1] = math.nan
        with pytest.raises(InvalidDistributionError, match="finite"):
            kron(*factors)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_lift_apply_rejects_non_finite(self, bad, ternary_dtm):
        # a NaN or infinite entry gave an all-NaN vector
        vec = np.ones(9)
        vec[4] = bad
        with pytest.raises(InvalidDistributionError, match="finite"):
            lift_dtm(ternary_dtm, 2).apply(vec)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_perturbation_that_overflows(self, ternary_point):
        # numpy's overflow RuntimeWarning escaped before the range check
        pert = Perturbation(ternary_point, np.array([1e300, -1e300, 0.0]), 1e10)
        with pytest.raises(InvalidDistributionError, match="leaves"):
            apply_perturbation(pert)


# bad inputs given as numpy scalars; under numpy 2 their repr reads np.float64(...)
NUMPY_SCALAR_CASES = {
    "non-finite probability": lambda dtm, w, px: Distribution(np.array([np.inf, 1.0])),
    "negative probability": lambda dtm, w, px: Distribution(np.array([1.5, -0.5])),
    "probability sum": lambda dtm, w, px: Distribution(np.array([0.5, 0.6])),
    "direction sum": lambda dtm, w, px: Perturbation(px, np.array([0.1, 0.0, 0.0]), 0.1),
    "perturbed value": lambda dtm, w, px: apply_perturbation(Perturbation(px, np.array([1.0, -1.0, 0.0]), 10.0)),
    "non-negative size": lambda dtm, w, px: solve_p2p(dtm, np.float64(-0.1)),
    "positive size": lambda dtm, w, px: brute_p2p(w, px, np.float64(-1e-3), SearchBudget(16)),
    "singular index": lambda dtm, w, px: dtm.right_vector(np.int64(7)),
    "layer support": lambda dtm, w, px: greedy_layer(w, px, 0.1, support=(np.int64(0), np.int64(7))),
    "block sizes": lambda dtm, w, px: BlockCodeConfig(n1=np.int64(400), k1=np.int64(-5)),
    "simulation seed": lambda dtm, w, px: BlockCodeConfig(n1=400, k1=5, seed=np.int64(-1)),
    "letters": lambda dtm, w, px: lift_dtm(dtm, np.int64(0)),
    "grid resolution": lambda dtm, w, px: SearchBudget(np.int64(4)),
    "regime": lambda dtm, w, px: plan_ternary_two_layer(np.float64(0.3), np.float64(0.1)),
}


class TestMessagesShowPlainNumbers:
    @pytest.mark.parametrize("case", NUMPY_SCALAR_CASES)
    def test_no_numpy_repr(self, case, ternary_dtm, ternary_channel, ternary_point):
        with pytest.raises(InfoCouplingError) as info:
            NUMPY_SCALAR_CASES[case](ternary_dtm, ternary_channel, ternary_point)
        assert "np." not in str(info.value)

    def test_cli_negative_probability(self, capsys, tmp_path):
        spec = tmp_path / "negative.json"
        spec.write_text(json.dumps({"input_dist": [1.5, -0.5], "channel": [[0.9, 0.1], [0.1, 0.9]]}))
        assert main(["couple", str(spec), "--mode", "p2p"]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: bad input_dist: negative probability -0.5 at index 1\n"
