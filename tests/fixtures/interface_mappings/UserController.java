package com.demo.users;

import org.springframework.web.bind.annotation.RestController;

@RestController
public class UserController implements UserApi {

    // no annotations: the mapping and the binding of `id` are UserApi's
    @Override
    public User get(long id) {
        if (id < 0) {
            throw new UserNotFoundException();
        }
        return new User();
    }

    @Override
    public User create(User user) {
        return user;
    }
}
