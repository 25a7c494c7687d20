"""Request normalisation: shapes, digests, and rejection messages."""

import pytest

from repro.orchestrate.job import Job
from repro.serve.protocol import ProtocolError, normalise
from repro.serve.queries import TRACE_MAX_C, TRACE_REF_BUDGET

REGISTRY = {
    "leaf": Job(name="leaf", fn="tests.orchestrate._jobfns:leaf",
                params={"value": 3}),
    "sum": Job(name="sum", fn="tests.orchestrate._jobfns:add",
               deps=("leaf",)),
}


class TestJobRequests:
    def test_registry_job(self):
        query = normalise({"job": "leaf"}, REGISTRY)
        assert query.names == ("leaf",)
        assert query.jobs["leaf"] is REGISTRY["leaf"]

    def test_param_overrides_derive_a_job(self):
        query = normalise({"job": "leaf", "params": {"value": 9}}, REGISTRY)
        (name,) = query.names
        assert name.startswith("leaf@")
        assert query.jobs[name].params == {"value": 9}
        assert query.jobs[name].fn == REGISTRY["leaf"].fn

    def test_identical_overrides_normalise_identically(self):
        first = normalise({"job": "leaf", "params": {"value": 9}}, REGISTRY)
        second = normalise({"job": "leaf", "params": {"value": 9}}, REGISTRY)
        assert first.names == second.names

    def test_simulated_override_derives_its_points(self):
        from repro.orchestrate.jobs import all_jobs

        registry = all_jobs()
        query = normalise({"job": "fig7-simulated",
                           "params": {"t_m_values": [8], "seeds": 1}},
                          registry)
        (name,) = query.names
        assert len(query.jobs[name].deps) == 3
        assert all(dep in query.jobs for dep in query.jobs[name].deps)
        # the inputs parameter of the assembling function is no param
        with pytest.raises(ProtocolError, match="unknown parameters"):
            normalise({"job": "fig7-simulated", "params": {"points": {}}},
                      registry)

    def test_unknown_job_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job"):
            normalise({"job": "nope"}, REGISTRY)

    def test_unkeyable_params_are_rejected(self):
        with pytest.raises(ProtocolError):
            normalise({"job": "leaf", "params": {"value": object()}},
                      REGISTRY)


class TestSweepRequests:
    def test_explicit_selection(self):
        query = normalise({"sweep": ["leaf", "sum"]}, REGISTRY)
        assert query.names == ("leaf", "sum")

    def test_default_selection_resolves_registry_names(self):
        from repro.orchestrate.jobs import all_jobs, default_sweep

        query = normalise({"sweep": "default"}, all_jobs())
        assert query.names == tuple(default_sweep())

    def test_empty_selection_is_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            normalise({"sweep": []}, REGISTRY)

    def test_duplicates_are_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            normalise({"sweep": ["leaf", "leaf"]}, REGISTRY)

    def test_unknown_names_are_rejected(self):
        with pytest.raises(ProtocolError, match="unknown jobs"):
            normalise({"sweep": ["leaf", "ghost"]}, REGISTRY)


class TestSyntheticRequests:
    def test_vcm_request_builds_a_job(self):
        query = normalise({"vcm": {"t_m": 16, "banks": 32}}, REGISTRY)
        (name,) = query.names
        assert name.startswith("vcm@")
        job = query.jobs[name]
        assert job.fn == "repro.serve.queries:vcm_query"
        assert job.params == {"t_m": 16, "banks": 32}
        assert "repro.analytical" in job.modules

    def test_trace_request_builds_a_job(self):
        query = normalise({"trace": {"stride": 4, "length": 128}}, REGISTRY)
        (name,) = query.names
        assert name.startswith("trace@")
        assert query.jobs[name].fn == "repro.serve.queries:trace_query"

    def test_identical_configs_share_a_name(self):
        a = normalise({"vcm": {"t_m": 16}}, REGISTRY)
        b = normalise({"vcm": {"t_m": 16}}, REGISTRY)
        c = normalise({"vcm": {"t_m": 32}}, REGISTRY)
        assert a.names == b.names
        assert a.names != c.names

    def test_unknown_parameters_are_rejected_up_front(self):
        with pytest.raises(ProtocolError, match="unknown parameters"):
            normalise({"vcm": {"warp_factor": 9}}, REGISTRY)

    def test_non_object_config_is_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            normalise({"vcm": [1, 2]}, REGISTRY)


class TestTraceBounds:
    """A trace body is typed and bounded at normalisation, so a bad one
    is a 400 before anything is scheduled (never a failing job)."""

    @pytest.mark.parametrize("params, message", [
        ({"length": "x"}, "length must be an integer"),
        ({"c": 3.5}, "c must be an integer"),
        ({"sweeps": True}, "sweeps must be an integer"),
        ({"c": 29, "organisation": "direct"}, "c must be in"),
        ({"c": 40}, "c must be in"),
        ({"c": 0, "organisation": "assoc"}, "c must be in"),
        ({"c": 12}, "Mersenne prime exponent"),
        ({"length": TRACE_REF_BUDGET, "sweeps": 2}, "exceeds the budget"),
        ({"length": 0}, "must be positive"),
        ({"base": 5, "stride": -8, "length": 4}, "addresses must lie"),
        ({"base": 1 << 62}, "addresses must lie"),
        ({"t_m": -4}, "non-negative"),
        ({"organisation": "belady"}, "organisation must be one of"),
        ({"kind": "random"}, "unsupported trace kind"),
    ])
    def test_out_of_range_values_are_rejected(self, params, message):
        with pytest.raises(ProtocolError, match=message):
            normalise({"trace": params}, REGISTRY)

    @pytest.mark.parametrize("params", [
        {"length": TRACE_REF_BUDGET, "c": TRACE_MAX_C,
         "organisation": "direct"},
        {"length": 1 << 20, "sweeps": 4, "c": 19, "organisation": "prime"},
        {"c": 1, "organisation": "assoc", "stride": -1, "base": 63,
         "length": 64, "t_m": 0},
    ])
    def test_values_at_the_bounds_are_accepted(self, params):
        (name,) = normalise({"trace": params}, REGISTRY).names
        assert name.startswith("trace@")


class TestVcmBounds:
    """``vcm`` bodies and ``vcm_batch`` points are bounded at
    normalisation by the ranges the analytical models need, so a bad
    one is a 400 before anything is scheduled."""

    @pytest.mark.parametrize("params, message", [
        ({"t_m": -4}, "t_m must be a positive int"),
        ({"t_m": 3.5}, "t_m must be a positive int"),
        ({"banks": "x"}, "banks must be a positive int"),
        ({"banks": 48}, "banks must be a power of two"),
        ({"banks": 1}, "banks must be a power of two of at least 2"),
        ({"cache_lines": 0}, "cache_lines must be a positive int"),
        ({"cache_lines": 1}, "cache_lines must be at least 2"),
        ({"reuse_factor": 0.5}, "reuse_factor must be at least 1"),
        ({"p_ds": 1.5}, "p_ds must be in"),
        ({"p_stride1_s1": -0.1}, "p_stride1_s1 must be in"),
        ({"s2": None}, "need a second stride"),
        ({"mapping": "assoc"}, "served by vcm_batch only"),
    ])
    def test_out_of_range_vcm_is_rejected(self, params, message):
        with pytest.raises(ProtocolError, match=message):
            normalise({"vcm": params}, REGISTRY)

    @pytest.mark.parametrize("point, message", [
        ({"banks": 3}, "point 0: banks must be a power of two"),
        ({"p_ds": 7.0}, "point 0: p_ds must be in"),
        ({"reuse_factor": -1}, "point 0: reuse_factor must be at least 1"),
        ({"mapping": "assoc"}, "power-of-two number of sets"),
        ({"mapping": "assoc", "cache_lines": 8192, "ways": 3},
         "power-of-two number of sets"),
    ])
    def test_out_of_range_vcm_batch_point_is_rejected(self, point, message):
        with pytest.raises(ProtocolError, match=message):
            normalise({"vcm_batch": [point]}, REGISTRY)

    def test_valid_body_keeps_its_params_and_key(self):
        body = {"vcm": {"t_m": 24, "banks": 32, "reuse_factor": 8}}
        (name,) = normalise(body, REGISTRY).names
        query = normalise(body, REGISTRY)
        assert query.jobs[name].params == body["vcm"]
        assert name == normalise({"vcm": {"banks": 32, "t_m": 24,
                                          "reuse_factor": 8}},
                                 REGISTRY).names[0]


class TestShapes:
    def test_body_must_be_an_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            normalise([1, 2], REGISTRY)

    def test_exactly_one_kind(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            normalise({}, REGISTRY)
        with pytest.raises(ProtocolError, match="exactly one"):
            normalise({"job": "leaf", "vcm": {}}, REGISTRY)

    def test_unexpected_fields_are_rejected(self):
        with pytest.raises(ProtocolError, match="unexpected"):
            normalise({"sweep": ["leaf"], "shard": 3}, REGISTRY)

    def test_job_accepts_params_field_only(self):
        with pytest.raises(ProtocolError, match="unexpected"):
            normalise({"job": "leaf", "force": True}, REGISTRY)
