package com.demo.web;

import org.springframework.web.bind.annotation.RequestMapping;

@RequestMapping("/admin")
public class AdminController extends BaseController {
}
