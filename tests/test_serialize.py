import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlog.data import ToySpec, add_bias_column, generate_toy, sample_from_model
from corrlog.errors import DataError, ModelFormatError
from corrlog.inference import predict_map_bp
from corrlog.model import ModelParams
from corrlog.objective import RegularizationConfig
from corrlog.optimizer import TrainConfig, train_corrlog
from corrlog.serialize import (
    FORMAT_VERSION,
    MAGIC,
    dump_json,
    export_label_graph,
    load_model,
    save_model,
)

from conftest import random_params

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, sys.float_info.max,
               -sys.float_info.max, sys.float_info.min, 1.0, -0.5]


@st.composite
def drawn_models(draw):
    """A model with edge-case coefficients, weights and metadata, as (params, reg, metadata)."""
    m, d = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    value = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    beta = np.array([[draw(value) for _ in range(d)] for _ in range(m)]).reshape(m, d)
    alpha = {(i, j): draw(value) for i in range(m) for j in range(i + 1, m)
             if draw(st.booleans())}
    reg = RegularizationConfig(*(draw(st.sampled_from([0.0, 1e-3, 5e-324, 0.5, 2.0]))
                                 for _ in range(3)))
    metadata = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "label_names": st.lists(st.text(max_size=4), min_size=m, max_size=m),
        "feature_scale": st.one_of(st.none(), st.floats(0.0, sys.float_info.max)),
        "add_bias": st.booleans(),
        "note": st.text(max_size=6),
    })))
    return ModelParams(beta, alpha, m, d), reg, metadata


def reference_document(params, reg, metadata) -> dict:
    """The model document as a plain dict, every coefficient as ``float.hex``."""
    return {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "num_labels": params.num_labels,
        "num_features": params.num_features,
        "beta": [[float(v).hex() for v in row] for row in params.beta],
        "alpha": [[i, j, float(params.alpha[i, j]).hex()]
                  for i in range(params.num_labels) for j in range(i + 1, params.num_labels)
                  if params.alpha[i, j] != 0.0],
        "regularization": {"lambda1": reg.lambda1, "lambda2": reg.lambda2,
                           "epsilon": reg.epsilon},
        "metadata": metadata or {},
    }


class TestDocumentLayout:
    """The joined alpha and beta text against ``json.dumps`` of the whole document."""

    @settings(max_examples=150, deadline=None)
    @given(drawn_models())
    def test_document_is_json_dumps_of_the_reference(self, model):
        expected = json.dumps(reference_document(*model), indent=2, sort_keys=True) + "\n"
        assert save_model(*model) == expected

    @pytest.mark.parametrize("m,d", [(1, 3), (3, 0), (1, 0)])
    def test_no_pairs_and_empty_rows(self, m, d):
        params = ModelParams(np.full((m, d), -0.0), {}, m, d)
        reg = RegularizationConfig()
        metadata = {"label_names": ["été", "猫", "\U0001f600"][:m]}
        doc = save_model(params, reg, metadata)
        assert doc == json.dumps(reference_document(params, reg, metadata), indent=2,
                                 sort_keys=True) + "\n"
        assert doc.isascii() and json.loads(doc)["alpha"] == []
        loaded = load_model(doc).params
        assert np.signbit(loaded.beta).all() and loaded.beta.shape == (m, d)


class TestModelDocument:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 4, 3, density=0.5)
        reg = RegularizationConfig(0.001, 0.002, 1.0)
        doc = save_model(params, reg, {"note": "fixture"})
        loaded = load_model(doc)
        assert np.array_equal(loaded.params.beta, params.beta)
        assert np.array_equal(loaded.params.alpha, params.alpha)
        assert loaded.reg == reg
        assert loaded.metadata == {"note": "fixture"}

    def test_save_load_save_byte_identical(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 3, 5, density=0.7)
        reg = RegularizationConfig(0.01, 0.02, 0.5)
        first = save_model(params, reg, {"k": [1, 2, 3]})
        loaded = load_model(first)
        second = save_model(loaded.params, loaded.reg, loaded.metadata)
        assert first == second

    @pytest.mark.parametrize("m,d", [(0, 0), (0, 3), (2, 0)])
    def test_empty_shapes_round_trip(self, m, d):
        # no label rows at all must still load as an (m, d) beta
        first = save_model(ModelParams.zeros(m, d), RegularizationConfig())
        loaded = load_model(first)
        assert loaded.params.beta.shape == (m, d) and loaded.params.alpha.shape == (m, m)
        assert save_model(loaded.params, loaded.reg, loaded.metadata) == first

    def test_all_zero_model_has_empty_alpha_list(self):
        doc = save_model(ModelParams.zeros(3, 2), RegularizationConfig())
        assert json.loads(doc)["alpha"] == []

    def test_trained_model_document_resaves_byte_identical(self):
        train, _ = generate_toy(ToySpec(n_train=80, n_test=1, seed=4))
        reg = RegularizationConfig(0.01, 0.01, 1.0)
        params, _ = train_corrlog(add_bias_column(train), TrainConfig(reg=reg, max_iters=300))
        assert params.nnz_alpha() == 1
        first = save_model(params, reg, {"trainer": "corrlog"})
        loaded = load_model(first)
        assert save_model(loaded.params, loaded.reg, loaded.metadata) == first

    def test_explicit_zero_triple_loads_and_is_dropped_on_resave(self):
        doc = json.loads(save_model(ModelParams(np.ones((3, 1)), {(0, 2): 0.5}, 3, 1),
                                    RegularizationConfig()))
        doc["alpha"] = [[0, 1, (0.0).hex()]] + doc["alpha"]
        loaded = load_model(json.dumps(doc))
        assert loaded.params.alpha[0, 1] == 0.0 and loaded.params.nnz_alpha() == 1
        resaved = json.loads(save_model(loaded.params, loaded.reg))
        assert resaved["alpha"] == [[0, 2, (0.5).hex()]]

    @pytest.mark.parametrize("triple", [
        [1, 0, "0x1.0p-1"],  # unordered
        [1, 1, "0x1.0p-1"],  # diagonal
        [0, 3, "0x1.0p-1"],  # out of range
        [0, 1, "inf"],
        [0, 1, "nan"],
    ])
    def test_invalid_alpha_triple_is_a_format_error(self, triple):
        doc = json.loads(save_model(ModelParams.zeros(3, 1), RegularizationConfig()))
        doc["alpha"] = [triple]
        with pytest.raises(ModelFormatError, match="inconsistent"):
            load_model(json.dumps(doc))

    def test_pair_listed_twice_is_a_format_error(self):
        doc = json.loads(save_model(ModelParams.zeros(3, 1), RegularizationConfig()))
        doc["alpha"] = [[0, 1, "0x1p0"], [0, 1, "0x1p1"]]
        with pytest.raises(ModelFormatError, match="alpha lists a pair more than once"):
            load_model(json.dumps(doc))

    # each value truncates by int() to a count or index the document is consistent with
    @pytest.mark.parametrize("shape,field,value", [
        ((3, 1), "num_labels", 3.7),
        ((1, 1), "num_labels", True),
        ((2, 1), "num_labels", "2"),
        ((1, 2), "num_features", 2.0),
        ((3, 1), "alpha", [[0, 1.5, "0x1p0"]]),
        ((3, 1), "alpha", [["0", 2, "0x1p0"]]),
    ])
    def test_count_or_index_that_is_not_a_json_integer_is_a_format_error(self, shape, field,
                                                                         value):
        doc = json.loads(save_model(ModelParams.zeros(*shape), RegularizationConfig()))
        doc[field] = value
        with pytest.raises(ModelFormatError, match="must be a JSON integer"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("shape,beta", [
        ((1, 1), 5),
        ((2, 1), [5, 5]),
        ((2, 1), "ab"),  # a string of 2 one-character rows, each a hex digit
        ((1, 1), ["a"]),
        ((1, 1), {"0": ["0x1p0"]}),
        ((2, 1), [["0x1p0"], "b"]),
    ])
    def test_beta_that_is_not_a_list_of_lists_is_a_format_error(self, shape, beta):
        doc = json.loads(save_model(ModelParams.zeros(*shape), RegularizationConfig()))
        doc["beta"] = beta
        with pytest.raises(ModelFormatError, match="beta must be a list of lists"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("metadata", [
        [],
        "notes",
        {"feature_scale": "abc"},
        {"feature_scale": -2.0},
        {"feature_scale": float("inf")},
        {"feature_scale": float("nan")},
        {"feature_scale": 10**400},  # no finite float64
        {"feature_scale": True},
        {"add_bias": "yes"},
        {"add_bias": 1},
        {"add_bias": None},
        {"label_names": 5},
        {"label_names": "ab"},  # a string of 2 characters for 2 labels
        {"label_names": ["a"]},
        {"label_names": ["a", "b", "c"]},
        {"label_names": []},
        {"label_names": ["a", 2]},
        {"label_names": {"a": 1, "b": 2}},
    ])
    def test_malformed_metadata_is_a_format_error(self, metadata):
        doc = json.loads(save_model(ModelParams.zeros(2, 1), RegularizationConfig()))
        doc["metadata"] = metadata
        with pytest.raises(ModelFormatError, match="metadata"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("alpha", [{}, {"0": [0, 1, "0x1p0"]}, "", None, 5,
                                       [[0, 1]], [[0, 1, "0x1p0", 1]], [{"i": 0}], ["ab"]])
    def test_alpha_that_is_not_a_list_of_triples_is_a_format_error(self, alpha):
        doc = json.loads(save_model(ModelParams.zeros(3, 1), RegularizationConfig()))
        doc["alpha"] = alpha
        with pytest.raises(ModelFormatError, match=r"^alpha must be a list of \[i, j, hex\] triples$"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "epsilon"])
    @pytest.mark.parametrize("value,message", [
        ("0.5", "must be a JSON number"),
        ("inf", "must be a JSON number"),
        (True, "must be a JSON number"),
        (None, "must be a JSON number"),
        ([0.5], "must be a JSON number"),
        (10**400, "too large to convert to float"),
        (float("nan"), "must be finite and nonnegative"),
        (float("inf"), "must be finite and nonnegative"),
        (-0.5, "must be finite and nonnegative"),
    ])
    def test_regularization_weight_that_is_not_a_usable_number_is_a_format_error(
            self, field, value, message):
        doc = json.loads(save_model(ModelParams.zeros(2, 1), RegularizationConfig()))
        doc["regularization"][field] = value
        with pytest.raises(ModelFormatError, match=message):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("value", [0, 2, 0.25])
    def test_integer_or_float_regularization_weights_load(self, value):
        doc = json.loads(save_model(ModelParams.zeros(2, 1), RegularizationConfig()))
        doc["regularization"]["lambda2"] = value
        assert load_model(json.dumps(doc)).reg.lambda2 == value

    @pytest.mark.parametrize("metadata", [
        {},
        {"feature_scale": None, "add_bias": False},
        {"feature_scale": 0.0, "add_bias": True},  # training on all-zero features
        {"feature_scale": 3},
        {"feature_scale": 0.5, "label_names": ["a", "b"]},
        {"label_names": None},
    ])
    def test_wellformed_metadata_loads(self, metadata):
        doc = save_model(ModelParams.zeros(2, 1), RegularizationConfig(), metadata)
        assert load_model(doc).metadata == metadata

    def test_bad_magic_rejected(self):
        doc = save_model(ModelParams.zeros(1, 1), RegularizationConfig())
        broken = doc.replace("corrlog-model", "something-else")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(broken)

    def test_wrong_version_rejected(self):
        doc = json.loads(save_model(ModelParams.zeros(1, 1), RegularizationConfig()))
        doc["version"] = 99
        with pytest.raises(ModelFormatError, match="version"):
            load_model(json.dumps(doc))

    def test_shape_inconsistency_rejected(self):
        doc = json.loads(save_model(ModelParams.zeros(2, 2), RegularizationConfig()))
        doc["num_features"] = 3
        with pytest.raises(ModelFormatError, match="shape"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("key", ["num_labels", "num_features", "beta", "alpha",
                                     "regularization"])
    def test_missing_field_rejected(self, key):
        doc = json.loads(save_model(ModelParams.zeros(2, 2), RegularizationConfig()))
        del doc[key]
        with pytest.raises(ModelFormatError, match=f"^model document is missing .*'{key}'$"):
            load_model(json.dumps(doc))

    def test_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model("not json at all {")

    def test_trained_toy_model_round_trips_behavior(self):
        train, test = generate_toy(ToySpec(n_train=150, n_test=100, seed=2))
        train = add_bias_column(train)
        test = add_bias_column(test)
        reg = RegularizationConfig(0.001, 0.001, 0.0)
        params, _ = train_corrlog(train, TrainConfig(reg=reg, max_iters=5000))
        loaded = load_model(save_model(params, reg)).params
        for x in test.features:
            orig, _ = predict_map_bp(params, x)
            back, _ = predict_map_bp(loaded, x)
            assert np.array_equal(orig, back)


class TestLabelGraph:
    def test_zero_alpha_edgeless(self):
        graph = export_label_graph(ModelParams.zeros(3, 2), ("a", "b", "c"))
        assert graph.nodes == ("a", "b", "c")
        assert graph.edges == []
        dot = graph.to_dot()
        assert '"a";' in dot and "--" not in dot

    def test_single_positive_edge(self):
        params = ModelParams(np.zeros((2, 1)), {(0, 1): 0.5}, 2, 1)
        graph = export_label_graph(params, ("x", "y"), threshold=0.0)
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert edge["source"] == "x" and edge["target"] == "y"
        assert edge["weight"] == 0.5
        assert edge["sign"] == "positive"
        assert '"x" -- "y"' in graph.to_dot()
        parsed = json.loads(dump_json(graph.as_dict()))
        assert parsed["edges"][0]["sign"] == "positive"

    @pytest.mark.parametrize("names,ids", [
        (("x", "y"), ('"x"', '"y"')),
        (('a"b', "c\\d"), ('"a\\"b"', '"c\\\\d"')),
    ])
    def test_dot_quotes_and_escapes_names(self, names, ids):
        params = ModelParams(np.zeros((2, 1)), {(0, 1): -0.5}, 2, 1)
        graph = export_label_graph(params, names)
        assert graph.to_dot() == (
            "graph label_correlations {\n"
            f"  {ids[0]};\n  {ids[1]};\n"
            f'  {ids[0]} -- {ids[1]} [weight=0.5, sign="negative", label="-0.5"];\n'
            "}\n")
        assert graph.as_dict()["nodes"] == list(names)

    def test_threshold_filters_small_weights(self):
        params = ModelParams(
            np.zeros((3, 1)), {(0, 1): 1e-10, (0, 2): -0.4}, 3, 1
        )
        graph = export_label_graph(params, ("a", "b", "c"))  # default 1e-8
        assert len(graph.edges) == 1
        assert graph.edges[0]["sign"] == "negative"

    def test_label_name_count_checked(self):
        with pytest.raises(DataError):
            export_label_graph(ModelParams.zeros(3, 1), ("a", "b"))

    def test_elastic_net_graph_no_denser_than_quadratic_graph(self):
        rng = np.random.default_rng(42)
        truth = random_params(rng, 5, 3, alpha_scale=0.5, density=0.4)
        ds = sample_from_model(truth, n=200, seed=3)
        graphs = {}
        for eps in (0.0, 1.0):
            reg = RegularizationConfig(0.02, 0.02, eps)
            params, _ = train_corrlog(ds, TrainConfig(reg=reg, max_iters=3000, rel_tol=1e-9))
            graphs[eps] = export_label_graph(params, ds.label_names)
        assert len(graphs[1.0].edges) <= len(graphs[0.0].edges)
        assert len(graphs[0.0].edges) == 10  # quadratic penalty keeps every pair


class TestDumpJson:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_standard_numbers_are_refused(self, value):
        with pytest.raises(ValueError):
            dump_json({"t_statistic": value})
