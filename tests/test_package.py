"""The package namespace is each data module's ``__all__``, re-exported once;
``cli`` and ``verify`` are not among the data modules."""

import types

import cstarlab
from cstarlab import (
    algebra,
    duality,
    errors,
    gelfand,
    ideals,
    interchange,
    spaces,
    spectra,
    spectral,
)

DATA_MODULES = (
    algebra, duality, errors, gelfand, ideals, interchange, spaces, spectra, spectral
)


def test_public_names_are_the_union_of_the_data_modules_all():
    declared = [name for module in DATA_MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    public = {
        name
        for name, value in vars(cstarlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(declared)
    for module in DATA_MODULES:
        for name in module.__all__:
            assert getattr(cstarlab, name) is getattr(module, name)

