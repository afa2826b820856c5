"""JobSpec validation, canonical argv, and cache-key identity."""

import pytest

from repro.cli import SCHEME_CHOICES, build_parser, command_params
from tests.test_cli import OUT_OF_DOMAIN
from repro.service.jobs import (
    JOB_KINDS,
    SERVICE_PARAMS,
    JobRecord,
    JobSpec,
    JobState,
    job_cache_key,
)


class TestJobSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec.from_request("shell", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            JobSpec.from_request("sweep", {"figure": 7, "argv": ["rm"]})

    def test_flag_injection_is_a_validation_error(self):
        # A client must never be able to smuggle argv through a value.
        with pytest.raises(ValueError, match="parameter 'scheme'"):
            JobSpec.from_request("grid", {"scheme": "--evil"})

    def test_type_errors_name_the_parameter(self):
        with pytest.raises(ValueError, match="parameter 'trials'"):
            JobSpec.from_request("sweep", {"trials": "ten"})
        with pytest.raises(ValueError, match="parameter 'quick'"):
            JobSpec.from_request("sweep", {"quick": 1})

    def test_range_limits_enforced(self):
        with pytest.raises(ValueError, match="invalid choice: 12"):
            JobSpec.from_request("sweep", {"figure": 12})
        with pytest.raises(ValueError, match="must be at least 1"):
            JobSpec.from_request("grid", {"rows": 0})

    def test_service_caps_resource_size(self):
        with pytest.raises(ValueError, match="must be <= 64, got 65"):
            JobSpec.from_request("grid", {"rows": 65})
        with pytest.raises(ValueError, match="must be <= 16, got 17"):
            JobSpec.from_request("chaos", {"rounds": [1, 17]})
        with pytest.raises(ValueError, match="at most 32 items"):
            JobSpec.from_request("chaos", {"rates": [0.0] * 33})

    def test_json_types_match_the_flag(self):
        with pytest.raises(ValueError, match="expected an integer"):
            JobSpec.from_request("grid", {"rows": "4"})
        with pytest.raises(ValueError, match="expected an integer"):
            JobSpec.from_request("grid", {"rows": 4.0})
        with pytest.raises(ValueError, match="expected a string"):
            JobSpec.from_request("grid", {"workload": 5})
        spec = JobSpec.from_request("grid", {"fault_percent": 1})
        assert spec.param_dict() == {"fault_percent": 1.0}

    @pytest.mark.parametrize(
        "job, message",
        [(job, message) for _, job, message in OUT_OF_DOMAIN if job],
        ids=[" ".join(argv) for argv, job, _ in OUT_OF_DOMAIN if job],
    )
    def test_out_of_domain_values_rejected(self, job, message):
        with pytest.raises(ValueError) as exc:
            JobSpec.from_request(*job)
        assert message in str(exc.value)

    def test_kill_spec_shape_enforced(self):
        with pytest.raises(ValueError, match="row,col@cycle"):
            JobSpec.from_request("grid", {"kill": ["1;1;40"]})

    def test_every_kind_has_a_param_table(self):
        assert tuple(SERVICE_PARAMS) == JOB_KINDS
        for kind, exposed in SERVICE_PARAMS.items():
            assert set(exposed) <= set(command_params(kind))

    @pytest.mark.parametrize("scheme", SCHEME_CHOICES)
    def test_every_registry_scheme_is_accepted(self, scheme):
        spec = JobSpec.from_request("grid", {"scheme": scheme})
        assert spec.to_argv() == ["grid", "--scheme", scheme]


class TestCanonicalArgv:
    def test_fixed_parameter_order(self):
        spec = JobSpec.from_request(
            "grid", {"seed": 7, "rows": 4, "scheme": "tmr", "cols": 4}
        )
        assert spec.to_argv() == [
            "grid", "--rows", "4", "--cols", "4", "--scheme", "tmr",
            "--seed", "7",
        ]

    def test_true_boolean_lowers_to_bare_flag(self):
        spec = JobSpec.from_request("sweep", {"figure": 7, "quick": True})
        assert spec.to_argv() == ["sweep", "--figure", "7", "--quick"]

    def test_false_boolean_is_elided(self):
        explicit = JobSpec.from_request("sweep", {"figure": 7, "quick": False})
        default = JobSpec.from_request("sweep", {"figure": 7})
        assert explicit.to_argv() == default.to_argv()
        assert explicit.cache_key == default.cache_key

    def test_kill_flag_repeats_per_occurrence(self):
        spec = JobSpec.from_request(
            "grid", {"kill": ["1,1@40", "2,0@80"]}
        )
        assert spec.to_argv() == [
            "grid", "--kill", "1,1@40", "--kill", "2,0@80",
        ]

    def test_list_flag_takes_all_values(self):
        spec = JobSpec.from_request(
            "chaos", {"rates": [0.0, 0.001], "rounds": [1, 3]}
        )
        assert spec.to_argv() == [
            "chaos", "--rates", "0", "0.001", "--rounds", "1", "3",
        ]


class TestCacheKey:
    def test_key_independent_of_request_key_order(self):
        a = JobSpec.from_request("grid", {"rows": 4, "cols": 4, "seed": 9})
        b = JobSpec.from_request("grid", {"seed": 9, "cols": 4, "rows": 4})
        assert a.cache_key == b.cache_key

    def test_key_differs_across_parameters(self):
        a = JobSpec.from_request("grid", {"rows": 4, "cols": 4})
        b = JobSpec.from_request("grid", {"rows": 4, "cols": 5})
        assert a.cache_key != b.cache_key

    def test_key_differs_across_kinds(self):
        a = JobSpec.from_request("grid", {"seed": 7})
        b = JobSpec.from_request("chaos", {"seed": 7})
        assert a.cache_key != b.cache_key

    def test_float_keeps_every_digit(self):
        """Floats that agree to six significant digits are still two
        runs: distinct keys, and each child parses the requested value."""
        rates = (0.0012345678, 0.0012345679)
        specs = [JobSpec.from_request("chaos", {"rates": [r]}) for r in rates]
        assert specs[0].cache_key != specs[1].cache_key
        for spec, rate in zip(specs, rates):
            assert build_parser().parse_args(spec.to_argv()).rates == [rate]

    def test_key_is_a_16_hex_config_hash(self):
        key = job_cache_key(JobSpec.from_request("sweep", {"figure": 7}))
        assert len(key) == 16
        int(key, 16)  # hex


class TestRoundTrips:
    def test_spec_json_round_trip(self):
        spec = JobSpec.from_request(
            "lifecycle",
            {"processes": ["transient", "permanent"], "rate": 0.002},
        )
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.cache_key == spec.cache_key

    def test_record_json_round_trip(self):
        record = JobRecord(
            id="j000007",
            spec=JobSpec.from_request("grid", {"rows": 4}),
            cache_key="abc",
            state=JobState.PARTIAL,
            attempts=2,
            incomplete=True,
            requeues=1,
            stderr_tail="note",
        )
        again = JobRecord.from_json(record.to_json())
        assert again.id == record.id
        assert again.state == JobState.PARTIAL
        assert again.spec == record.spec
        assert again.incomplete and again.requeues == 1

    def test_terminal_and_resumable_partition_states(self):
        lifecycle = {
            JobState.QUEUED, JobState.RUNNING, JobState.DONE,
            JobState.PARTIAL, JobState.FAILED, JobState.CANCELLED,
        }
        assert set(JobState.TERMINAL) | set(JobState.RESUMABLE) == lifecycle
        assert not set(JobState.TERMINAL) & set(JobState.RESUMABLE)


#: ``(kind, request params) -> (canonical argv, cache key)``, captured
#: when the service declared its own parameter table.  Together the
#: requests set every parameter of the four kinds; a changed argv or
#: key would orphan every cached result and checkpoint a running
#: service already holds.  The one float with more than six significant
#: digits lowers in full: its ``:g`` form ran a different run.
PINNED_REQUESTS = [
    ("sweep", {}, ["sweep"], "9e32eeb434359f1f"),
    ("sweep",
     {"backend": "batched", "jobs": 2, "seed": 7, "trials": 3,
      "quick": True, "figure": 8},
     ["sweep", "--figure", "8", "--quick", "--trials", "3", "--seed", "7",
      "--jobs", "2", "--backend", "batched"],
     "451df5ecccfa43a9"),
    ("sweep", {"figure": 9, "quick": False, "trials": 100},
     ["sweep", "--figure", "9", "--trials", "100"], "4a7b1c446af4dfdd"),
    ("grid", {}, ["grid"], "3e51e05203a75bfd"),
    ("grid",
     {"seed": 9, "rounds": 4, "adaptive": True, "kill": ["1,1@40", "2,3@7"],
      "fault_percent": 1, "image_size": 16, "workload": "hue_shift",
      "scheme": "hamming", "cols": 6, "rows": 5, "backend": "scalar"},
     ["grid", "--rows", "5", "--cols", "6", "--scheme", "hamming",
      "--workload", "hue_shift", "--image-size", "16", "--fault-percent",
      "1", "--kill", "1,1@40", "--kill", "2,3@7", "--adaptive", "--rounds",
      "4", "--seed", "9", "--backend", "scalar"],
     "ba48b7a156b8c66b"),
    ("grid", {"fault_percent": 0.25, "adaptive": False, "scheme": "7mr"},
     ["grid", "--scheme", "7mr", "--fault-percent", "0.25"],
     "1028998256fc0467"),
    ("chaos", {}, ["chaos"], "9a1db3676aa0a528"),
    ("chaos",
     {"backend": "compiled", "seed": 3, "instructions": 32, "cols": 5,
      "rows": 4, "stall_rate": 0.001, "drop_rate": 0.01,
      "rounds": [1, 3, 16], "rates": [0, 0.001, 1e-05, 0.0012345678]},
     ["chaos", "--rates", "0", "0.001", "1e-05", "0.0012345678",
      "--rounds", "1", "3", "16", "--drop-rate", "0.01", "--stall-rate",
      "0.001", "--rows", "4", "--cols", "5", "--instructions", "32",
      "--seed", "3", "--backend", "compiled"],
     "d8265c8c5cf6434e"),
    ("lifecycle", {}, ["lifecycle"], "ecf6b9813c2fe729"),
    ("lifecycle",
     {"seed": 11, "cols": 3, "rows": 3, "instructions": 24, "jobs": 2,
      "decay": 0.2, "burst_length": 7, "rate": 0.002,
      "processes": ["transient", "permanent", "intermittent"],
      "backend": "auto"},
     ["lifecycle", "--processes", "transient", "permanent", "intermittent",
      "--rate", "0.002", "--burst-length", "7", "--decay", "0.2", "--jobs",
      "2", "--instructions", "24", "--rows", "3", "--cols", "3", "--seed",
      "11", "--backend", "auto"],
     "893e859f1c4f370b"),
]


@pytest.mark.parametrize(
    "kind, params, argv, key", PINNED_REQUESTS,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(PINNED_REQUESTS)],
)
def test_pinned_argv_and_cache_key(kind, params, argv, key):
    spec = JobSpec.from_request(kind, params)
    assert spec.to_argv() == argv
    assert spec.cache_key == key
