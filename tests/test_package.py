import sgdlab

# Names the package no longer has: the solo result types and helpers no
# experiment used, and two test references now in tests/helpers.py.
DELETED = (
    "CoupledRun",
    "Trajectory",
    "empirical_sigma",
    "finite_difference_gradient",
    "run_gradient_flow",
    "run_projected_sgd",
    "suffix_average",
)


def test_public_names_resolve_and_deleted_names_are_gone():
    assert len(set(sgdlab.__all__)) == len(sgdlab.__all__)
    for name in sgdlab.__all__:
        getattr(sgdlab, name)
    for name in DELETED:
        assert name not in sgdlab.__all__
        assert not hasattr(sgdlab, name), name
