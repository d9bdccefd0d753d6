"""The package namespace: every exported name resolves and is listed once."""

import teleopstab

MODULES = (
    teleopstab.lti,
    teleopstab.plants,
    teleopstab.control,
    teleopstab.stability,
    teleopstab.sim,
    teleopstab.scenario,
)


def test_all_names_resolve_once():
    names = teleopstab.__all__
    assert len(names) == len(set(names))
    assert names[0] == "__version__"
    assert names[1:] == [name for mod in MODULES for name in mod.__all__]
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(teleopstab, name) is getattr(mod, name), name
